package encode

import (
	"slices"

	"aquila/internal/gcl"
	"aquila/internal/smt"
)

// Reuse carries encodings from one Env to the next. A caller that
// re-encodes one program over one context after every small snapshot
// change (the delta session) would re-derive the same prologue, parser,
// deparser and table-apply encodings each time. Each is a pure function
// of the program, the options, the entries of the table it applies and
// the Env's naming counters where it starts, and the context hash-conses
// every term it builds. So an Env attached to a Reuse replays an encoding
// the previous Env stored for the same part and starting counters: the
// same GCL statement, with the counters advanced and the table terms
// recorded exactly as encoding it again would.
//
// A Reuse holds the parts of the most recent encoding only, so it stays
// the size of one program. A stored table apply is valid while the
// table's entries stay as they were; Forget drops it when they change.
// Every Env attached to one Reuse must share its context, program and
// options, and the context must keep the stored terms (no Release).
type Reuse struct {
	last, cur map[partKey]*part // the previous Env's parts, the current one's
}

// partKey names an encoded part ("init", "parser P", "deparser D",
// "table Ctl.t") and the naming counters its encoding started from.
type partKey struct {
	name string
	at   counters
}

type counters struct{ fresh, hashSeq int }

type part struct {
	stmt  gcl.Stmt
	after counters
	fq    string      // the table a table apply recorded terms for
	terms []*smt.Term // ... and the terms, in recording order
}

// NewReuse returns an empty Reuse.
func NewReuse() *Reuse { return &Reuse{} }

// Forget drops the stored encodings of table fq ("Ctl.table"), whose
// entries changed.
func (r *Reuse) Forget(fq string) {
	for k := range r.cur {
		if k.name == "table "+fq {
			delete(r.cur, k)
		}
	}
}

// SetReuse attaches r to a new Env, before anything is encoded: the Env
// replays the parts the previous Env attached to r encoded, and stores
// its own for the next.
func (e *Env) SetReuse(r *Reuse) {
	r.last, r.cur = r.cur, map[partKey]*part{}
	e.reuse = r
}

// reused returns the encoding of the part name, replaying it from the
// Reuse when the previous Env encoded it from the same counters. fq is
// the table a table apply records terms for, "" for other parts.
func (e *Env) reused(name, fq string, encode func() (gcl.Stmt, error)) (gcl.Stmt, error) {
	r := e.reuse
	if r == nil {
		return encode()
	}
	k := partKey{name, counters{e.fresh, e.hashSeq}}
	p := r.last[k]
	if p == nil {
		n := len(e.tableTerms[fq])
		s, err := encode()
		if err != nil {
			return nil, err
		}
		p = &part{stmt: s, after: counters{e.fresh, e.hashSeq}}
		if fq != "" {
			p.fq, p.terms = fq, slices.Clone(e.tableTerms[fq][n:])
		}
	} else {
		e.fresh, e.hashSeq = p.after.fresh, p.after.hashSeq
		e.recordTableTerms(p.fq, p.terms...)
	}
	r.cur[k] = p
	return p.stmt, nil
}
