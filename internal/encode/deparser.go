package encode

import (
	"fmt"

	"aquila/internal/gcl"
	"aquila/internal/p4"
	"aquila/internal/smt"
)

// EncodeDeparser compiles a deparser: emits build the output header-order
// sequence from valid headers, then the unparsed remainder of the input
// packet is appended (Appendix B.4), then checksum updates run.
func (e *Env) EncodeDeparser(name string) (gcl.Stmt, error) {
	return e.reused("deparser "+name, "", func() (gcl.Stmt, error) { return e.encodeDeparser(name) })
}

func (e *Env) encodeDeparser(name string) (gcl.Stmt, error) {
	dp, ok := e.Prog.Deparsers[name]
	if !ok {
		return nil, fmt.Errorf("encode: unknown deparser %q", name)
	}
	c := e.Ctx
	var out []gcl.Stmt

	if e.Opts.Packet == PacketBitvector {
		// The bit-vector baseline reassembles the packet by shifting each
		// emitted header back into one big vector — the repeated whole-
		// vector copies §4.2 calls out as the memory-cost driver.
		return e.encodeDeparserBitvector(dp)
	}

	// Reset output order.
	for i := 0; i < e.MaxHeaders(); i++ {
		out = append(out, &gcl.Assign{Var: e.OutOrderVar(i), Rhs: c.BV(0, OrderWidth)})
	}
	out = append(out, &gcl.Assign{Var: e.OutIdxVar(), Rhs: c.BV(0, OrderWidth)})

	var checksums []gcl.Stmt
	for _, s := range dp.Stmts {
		switch st := s.(type) {
		case *p4.EmitStmt:
			out = append(out, e.encodeEmit(st.Header))
		case *p4.UpdateChecksumStmt:
			// Checksums run after reassembly in real deparsers; order after
			// emits here.
			g, err := e.encodeChecksum(st)
			if err != nil {
				return nil, err
			}
			checksums = append(checksums, g)
		default:
			return nil, fmt.Errorf("encode: unsupported deparser statement %T", s)
		}
	}

	// Append the unparsed input headers: entries of pkt.$order from
	// pkt.$extidx onward (the next pipeline may parse deeper, App. B.4).
	outIdx := e.OutIdxVar()
	extIdx := e.ExtIdxVar()
	for k := 0; k < e.MaxHeaders(); k++ {
		val := e.SelectOrderAt(c.BVAdd(extIdx, c.BV(uint64(k), OrderWidth)))
		dst := c.BVAdd(outIdx, c.BV(uint64(k), OrderWidth))
		for i := 0; i < e.MaxHeaders(); i++ {
			slot := e.OutOrderVar(i)
			cond := c.And(c.Eq(dst, c.BV(uint64(i), OrderWidth)), c.Neq(val, c.BV(0, OrderWidth)))
			out = append(out, &gcl.Assign{Var: slot, Rhs: c.Ite(cond, val, slot)})
		}
	}
	out = append(out, checksums...)
	return gcl.NewSeq(out...), nil
}

// encodeEmit appends header id to the output sequence when the header is
// valid.
func (e *Env) encodeEmit(inst string) gcl.Stmt {
	c := e.Ctx
	outIdx := e.OutIdxVar()
	id := c.BV(e.HeaderID(inst), OrderWidth)
	var body []gcl.Stmt
	for i := 0; i < e.MaxHeaders(); i++ {
		slot := e.OutOrderVar(i)
		body = append(body, &gcl.Assign{
			Var: slot,
			Rhs: c.Ite(c.Eq(outIdx, c.BV(uint64(i), OrderWidth)), id, slot),
		})
	}
	body = append(body, &gcl.Assign{Var: outIdx, Rhs: c.BVAdd(outIdx, c.BV(1, OrderWidth))})
	return &gcl.If{Cond: e.ValidVar(inst), Then: gcl.NewSeq(body...), Else: &gcl.Skip{}}
}

// encodeChecksum recomputes Dst from the inputs. The model checksum is the
// width-truncated sum of the inputs — the substitution for the hardware
// ones-complement checksum documented in DESIGN.md; properties compare
// recomputations on both sides so the algebraic identity is preserved.
func (e *Env) encodeChecksum(st *p4.UpdateChecksumStmt) (gcl.Stmt, error) {
	c := e.Ctx
	w := e.lvalueWidth(st.Dst, &exprScope{})
	sum := c.BV(0, w)
	for _, in := range st.Inputs {
		t := e.Expr(in, &exprScope{}, 0)
		sum = c.BVAdd(sum, c.Resize(t, w))
	}
	return e.assignTo(st.Dst, sum, &exprScope{})
}

func (e *Env) encodeDeparserBitvector(dp *p4.Deparser) (gcl.Stmt, error) {
	c := e.Ctx
	bits := e.PktBitsVar()
	total := bits.Width
	cursor := e.FreshVar("outcursor", 16)
	var out []gcl.Stmt
	out = append(out, &gcl.Assign{Var: cursor, Rhs: c.BV(0, 16)})
	for _, s := range dp.Stmts {
		switch st := s.(type) {
		case *p4.EmitStmt:
			ht := e.Prog.InstanceType(st.Header)
			// Concatenate the header's current field values.
			var hv *smt.Term
			for _, f := range ht.Fields {
				fv := e.FieldVar(st.Header, f.Name)
				if hv == nil {
					hv = fv
				} else {
					hv = c.Concat(hv, fv)
				}
			}
			// Shift into position: pkt.$bits |= hv << (total - cursor - w).
			wide := c.Resize(hv, total)
			sh := c.BVSub(c.BV(uint64(total-ht.Width()), total), c.Resize(cursor, total))
			placed := c.BVShl(wide, sh)
			body := gcl.NewSeq(
				&gcl.Assign{Var: bits, Rhs: c.BVOr(bits, placed)},
				&gcl.Assign{Var: cursor, Rhs: c.BVAdd(cursor, c.BV(uint64(ht.Width()), 16))},
			)
			out = append(out, &gcl.If{Cond: e.ValidVar(st.Header), Then: body, Else: &gcl.Skip{}})
		case *p4.UpdateChecksumStmt:
			g, err := e.encodeChecksum(st)
			if err != nil {
				return nil, err
			}
			out = append(out, g)
		}
	}
	return gcl.NewSeq(out...), nil
}

// PassPacket encodes inter-pipeline packet passing (§4.3/App. B.4): the
// deparsed output becomes the next pipeline's input packet — emitted
// header values overwrite the packet image, the output order becomes the
// input order, and parser state is reset.
func (e *Env) PassPacket() gcl.Stmt {
	c := e.Ctx
	var out []gcl.Stmt
	for _, inst := range e.Headers() {
		ht := e.Prog.InstanceType(inst.Name)
		valid := e.ValidVar(inst.Name)
		for _, f := range ht.Fields {
			pv := e.PktFieldVar(inst.Name, f.Name)
			out = append(out, &gcl.Assign{
				Var: pv,
				Rhs: c.Ite(valid, e.FieldVar(inst.Name, f.Name), pv),
			})
		}
	}
	for i := 0; i < e.MaxHeaders(); i++ {
		out = append(out, &gcl.Assign{Var: e.OrderVar(i), Rhs: e.OutOrderVar(i)})
	}
	for _, inst := range e.Headers() {
		out = append(out, &gcl.Assign{Var: e.ValidVar(inst.Name), Rhs: c.False()})
	}
	out = append(out,
		&gcl.Assign{Var: e.ExtIdxVar(), Rhs: c.BV(0, OrderWidth)},
		&gcl.Assign{Var: e.OutIdxVar(), Rhs: c.BV(0, OrderWidth)},
	)
	return gcl.NewSeq(out...)
}

// EncodeRecirculating wraps a pipeline body in the bounded recirculation
// loop of §4.3: while the program sets std_meta.recirc, the packet is
// passed back to the pipeline entrance, at most bound times.
func (e *Env) EncodeRecirculating(body gcl.Stmt, bound int) gcl.Stmt {
	c := e.Ctx
	recirc := e.StdMetaVar("recirc")
	count := e.StdMetaVar("recirc_count")
	loopBody := gcl.NewSeq(
		&gcl.Assign{Var: recirc, Rhs: c.BV(0, 1)},
		&gcl.Assign{Var: count, Rhs: c.BVAdd(count, c.BV(1, 8))},
		e.PassPacket(),
		body,
	)
	return gcl.NewSeq(
		body,
		&gcl.While{Cond: c.Eq(recirc, c.BV(1, 1)), Body: loopBody, Bound: bound},
	)
}

// EncodeResubmitting wraps a body in the bounded resubmission loop: unlike
// recirculation, resubmit re-injects the ORIGINAL packet into the ingress
// parser without deparsing — header state is reset but the packet image
// (pkt.*) is untouched, and metadata carries over (§4.3 pipeline
// behaviours).
func (e *Env) EncodeResubmitting(body gcl.Stmt, bound int) gcl.Stmt {
	c := e.Ctx
	resubmit := e.StdMetaVar("resubmit")
	var reset []gcl.Stmt
	for _, inst := range e.Headers() {
		reset = append(reset, &gcl.Assign{Var: e.ValidVar(inst.Name), Rhs: c.False()})
	}
	reset = append(reset, &gcl.Assign{Var: e.ExtIdxVar(), Rhs: c.BV(0, OrderWidth)})
	loopBody := gcl.NewSeq(
		&gcl.Assign{Var: resubmit, Rhs: c.BV(0, 1)},
		gcl.NewSeq(reset...),
		body,
	)
	return gcl.NewSeq(
		body,
		&gcl.While{Cond: c.Eq(resubmit, c.BV(1, 1)), Body: loopBody, Bound: bound},
	)
}
