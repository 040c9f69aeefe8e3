package encode

import (
	"encoding/binary"
	"maps"
	"slices"

	"aquila/internal/gcl"
	"aquila/internal/smt"
	"aquila/internal/tables"
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
//
// A table whose entries changed is re-encoded, but through its lookup
// memo (tableMemo), which Forget keeps: an entry whose content the
// previous encoding saw gets the same match and ABV terms back, and a
// lookup node whose children are pointer-unchanged gets the same term
// back, so a one-entry delta builds only its entry and the nodes above it.
type Reuse struct {
	last, cur map[partKey]*part     // the previous Env's parts, the current one's
	tables    map[string]*tableMemo // by table ("Ctl.table")
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
func NewReuse() *Reuse { return &Reuse{tables: map[string]*tableMemo{}} }

// Forget drops the stored encodings of table fq ("Ctl.table"), whose
// entries changed. The table's lookup memo stays.
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

// tableMemo is what encoding one table's ABV lookup (§4.2) left for the
// next encoding of the same table. Each of its answers is a term the
// encoder would build again from the same inputs, and the context
// hash-conses it to the same pointer: so a hit skips only constructions
// that would create no term, while misses run in the order a full
// encoding runs them. The memo thus changes neither the terms, nor their
// IDs, nor Ctx.NumTerms.
type tableMemo struct {
	// keys and layout are the table's key terms and ABV layout the entry
	// terms were built on; a memo for other ones is discarded whole.
	keys   []*smt.Term
	layout abvLayout

	// entries maps an entry's content (entryKey: keys, action and
	// arguments, not the priority) to its match and ABV terms. Keyed by
	// content, not position, it still hits when an add or remove shifts
	// the positions of the entries after it.
	entries map[string]*entryTerms
	gen     int    // encodings of the table so far, to age out entries
	key     []byte // entryKey's buffer
	// at holds the last encoding's entries by position, so an entry
	// whose content equals its position's last one is found without a
	// map lookup (a replace keeps every other position's content).
	at []*entryTerms

	// nodes holds the lookup's inner nodes by position (tree nodes in
	// post-order, chain links from the last entry up): the four child
	// terms a node was built from and the two terms built.
	nodes []lookupNode
}

type entryTerms struct {
	key        string // the entry's entryKey
	match, abv *smt.Term
	gen        int // the last encoding that used the entry
}

type lookupNode struct {
	in         [4]*smt.Term
	abv, match *smt.Term
}

// tableMemo returns the lookup memo of table fq for the given key terms
// and ABV layout, or nil when the Env has no Reuse.
func (e *Env) tableMemo(fq string, keys []*smt.Term, l abvLayout) *tableMemo {
	r := e.reuse
	if r == nil {
		return nil
	}
	m := r.tables[fq]
	if m == nil || m.layout != l || !slices.Equal(m.keys, keys) {
		m = &tableMemo{keys: keys, layout: l, entries: map[string]*entryTerms{}}
		r.tables[fq] = m
	}
	m.gen++
	return m
}

// entryKey encodes the content of ent that its match and ABV terms
// depend on into the memo's buffer.
func (m *tableMemo) entryKey(ent *tables.Entry) []byte {
	b := m.key[:0]
	for _, k := range ent.Keys {
		b = binary.LittleEndian.AppendUint64(b, k.Value)
		b = binary.LittleEndian.AppendUint64(b, k.Mask)
		b = binary.LittleEndian.AppendUint64(b, uint64(k.PrefixLen))
		b = binary.LittleEndian.AppendUint64(b, k.High)
		if k.IsRange {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	}
	b = binary.LittleEndian.AppendUint64(b, uint64(len(ent.Action)))
	b = append(b, ent.Action...)
	for _, a := range ent.Args {
		b = binary.LittleEndian.AppendUint64(b, a)
	}
	m.key = b
	return b
}

// entry returns the memoized terms of the entry at position i whose
// content is key (m.entryKey of it).
func (m *tableMemo) entry(i int, key []byte) (match, abv *smt.Term, ok bool) {
	var t *entryTerms
	if i < len(m.at) && m.at[i].key == string(key) {
		t = m.at[i]
	} else if t = m.entries[string(key)]; t == nil {
		return nil, nil, false
	}
	m.place(i, t)
	return t.match, t.abv, true
}

func (m *tableMemo) storeEntry(i int, key []byte, match, abv *smt.Term) {
	if m == nil {
		return
	}
	t := &entryTerms{key: string(key), match: match, abv: abv}
	m.entries[t.key] = t
	m.place(i, t)
}

// place records t as used by the current encoding at position i.
func (m *tableMemo) place(i int, t *entryTerms) {
	t.gen = m.gen
	if i < len(m.at) {
		m.at[i] = t
	} else {
		m.at = append(m.at, t)
	}
}

// prune ends an encoding of n entries: it drops the positions past n and,
// once the entries the encoding did not use outnumber the n it did, those
// entries, so the memo stays the size of the table.
func (m *tableMemo) prune(n int) {
	if m == nil {
		return
	}
	clear(m.at[n:])
	m.at = m.at[:n]
	if len(m.entries) > 2*n {
		maps.DeleteFunc(m.entries, func(_ string, t *entryTerms) bool { return t.gen != m.gen })
	}
}

// node returns the terms lookup node i built from the child terms in, if
// it was built from exactly those.
func (m *tableMemo) node(i int, in [4]*smt.Term) (abv, match *smt.Term, ok bool) {
	if m == nil || i >= len(m.nodes) || m.nodes[i].in != in {
		return nil, nil, false
	}
	return m.nodes[i].abv, m.nodes[i].match, true
}

func (m *tableMemo) storeNode(i int, in [4]*smt.Term, abv, match *smt.Term) {
	if m == nil {
		return
	}
	if i >= len(m.nodes) {
		m.nodes = slices.Grow(m.nodes, i+1-len(m.nodes))[:i+1]
	}
	m.nodes[i] = lookupNode{in: in, abv: abv, match: match}
}
