package tables

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Format renders a snapshot in the text format ParseSnapshot reads.
// Entries are emitted in match order (the Entries sort), so a
// round-tripped snapshot matches identically even though explicit
// priorities are re-derived from emission order.
func Format(s *Snapshot) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	for _, tn := range s.Tables() {
		fmt.Fprintf(&b, "table %s {\n", tn)
		for _, e := range s.Entries(tn) {
			b.WriteString("  ")
			b.WriteString(FormatEntry(e))
			b.WriteString("\n")
		}
		b.WriteString("}\n")
	}
	return b.String()
}

// FormatEntry renders one entry in the text format parseEntry reads.
func FormatEntry(e *Entry) string {
	var b strings.Builder
	for i, k := range e.Keys {
		if i > 0 {
			b.WriteString(", ")
		}
		switch {
		case k.IsRange:
			fmt.Fprintf(&b, "%d..%d", k.Value, k.High)
		case k.PrefixLen >= 0:
			fmt.Fprintf(&b, "%d/%d", k.Value, k.PrefixLen)
		case k.Mask == 0:
			b.WriteString("_")
		case k.Mask == ^uint64(0):
			fmt.Fprintf(&b, "%d", k.Value)
		default:
			fmt.Fprintf(&b, "0x%x &&& 0x%x", k.Value, k.Mask)
		}
	}
	fmt.Fprintf(&b, " -> %s", e.Action)
	if len(e.Args) > 0 {
		args := make([]string, len(e.Args))
		for i, a := range e.Args {
			args[i] = fmt.Sprintf("%d", a)
		}
		fmt.Fprintf(&b, "(%s)", strings.Join(args, ", "))
	}
	return b.String()
}

// Op kinds of a delta operation.
const (
	// OpAdd appends Entry to Table.
	OpAdd = DeltaKind(iota)
	// OpRemove deletes the entry at Index of Table's match order.
	OpRemove
	// OpReplace swaps the entry at Index of Table's match order for
	// Entry, keeping its match-order position (priority).
	OpReplace
)

// DeltaKind discriminates delta operations.
type DeltaKind uint8

func (k DeltaKind) String() string {
	switch k {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpReplace:
		return "replace"
	}
	return fmt.Sprintf("DeltaKind(%d)", uint8(k))
}

// DeltaOp is one table-entry change. Index addresses an entry by its
// position in the table's Entries() match order — the order Format
// emits — evaluated against the snapshot state after the delta's
// preceding operations.
type DeltaOp struct {
	Kind  DeltaKind
	Table string // fully-qualified "Control.table"
	Index int    // OpRemove, OpReplace
	Entry *Entry // OpAdd, OpReplace
}

// Delta is one atomic batch of table-entry changes — what a control
// plane pushes between two verified snapshot states. Operations apply
// in order.
type Delta struct {
	Ops []DeltaOp
}

// Tables returns the sorted set of table names the delta touches.
func (d *Delta) Tables() []string {
	seen := map[string]bool{}
	var out []string
	for _, op := range d.Ops {
		if !seen[op.Table] {
			seen[op.Table] = true
			out = append(out, op.Table)
		}
	}
	sort.Strings(out)
	return out
}

// Validate checks every operation's table reference against a known-table
// predicate (typically the fully-qualified "Control.table" names a program
// declares), reporting the first reference to a table the program does not
// have. Index bounds are not checked here — they depend on snapshot state
// and stay Apply's job — so Validate is the cheap, snapshot-independent
// half of delta admission, the one aquila-serve runs before enqueueing.
func (d *Delta) Validate(known func(table string) bool) error {
	for i, op := range d.Ops {
		if !known(op.Table) {
			return fmt.Errorf("tables: delta op %d (%s): unknown table %q", i, op.Kind, op.Table)
		}
	}
	return nil
}

// Apply mutates snap by the delta's operations, in order. Added and
// replacement entries are deep-copied, so the delta can be reapplied to
// other snapshots. On error the snapshot may be partially updated;
// callers that need atomicity should Apply to a Clone.
func (d *Delta) Apply(snap *Snapshot) error {
	for i, op := range d.Ops {
		if err := applyOp(snap, op); err != nil {
			return fmt.Errorf("tables: delta op %d (%s %s): %w", i, op.Kind, op.Table, err)
		}
	}
	return nil
}

// ApplyCopy returns the snapshot the delta makes of s, leaving s
// unchanged; s may be nil. The result is copy-on-write: it shares with s
// the entry slices of every table the delta does not touch, and for a
// touched table copies only the slice of entry pointers, so the entries
// s already had are shared and only added or replacement entries are
// new. Neither snapshot may mutate a shared entry in place afterwards.
func (d *Delta) ApplyCopy(s *Snapshot) (*Snapshot, error) {
	next := NewSnapshot()
	if s != nil {
		maps.Copy(next.entries, s.entries)
		s.mu.Lock()
		maps.Copy(next.order, s.order)
		s.mu.Unlock()
	}
	for _, t := range d.Tables() {
		if es, ok := next.entries[t]; ok {
			next.entries[t] = slices.Clone(es)
		}
	}
	if err := d.Apply(next); err != nil {
		return nil, err
	}
	return next, nil
}

func applyOp(snap *Snapshot, op DeltaOp) error {
	switch op.Kind {
	case OpAdd:
		if op.Entry == nil {
			return fmt.Errorf("add without an entry")
		}
		snap.Add(op.Table, cloneEntry(op.Entry, -1))
		return nil
	case OpRemove, OpReplace:
		ordered := snap.ordered(op.Table)
		if op.Index < 0 || op.Index >= len(ordered) {
			return fmt.Errorf("index %d out of range [0, %d)", op.Index, len(ordered))
		}
		target := ordered[op.Index]
		raw := snap.entries[op.Table]
		at := -1
		for i, e := range raw {
			if e == target {
				at = i
				break
			}
		}
		if at < 0 {
			return fmt.Errorf("internal: match-order entry not in table")
		}
		// The rest of the table keeps its relative match order, so the
		// cached order is edited rather than sorted again.
		if op.Kind == OpRemove {
			snap.entries[op.Table] = append(raw[:at], raw[at+1:]...)
			if len(snap.entries[op.Table]) == 0 {
				delete(snap.entries, op.Table)
				delete(snap.order, op.Table)
			} else {
				snap.order[op.Table] = slices.Delete(slices.Clone(ordered), op.Index, op.Index+1)
			}
			return nil
		}
		if op.Entry == nil {
			return fmt.Errorf("replace without an entry")
		}
		ne := cloneEntry(op.Entry, target.Priority)
		raw[at] = ne
		if maxPrefix(ne) == maxPrefix(target) {
			// Same sort key and raw position: the same place in the order.
			next := slices.Clone(ordered)
			next[op.Index] = ne
			snap.order[op.Table] = next
		} else {
			delete(snap.order, op.Table)
		}
		return nil
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

func cloneEntry(e *Entry, priority int) *Entry {
	ne := *e
	ne.Keys = append([]KeyMatch(nil), e.Keys...)
	ne.Args = append([]uint64(nil), e.Args...)
	ne.Priority = priority
	return &ne
}

// entryEqual compares two entries semantically: keys, action, and
// arguments. Priority is excluded — it is an ordering device whose
// absolute value is irrelevant once the match order agrees.
func entryEqual(a, b *Entry) bool {
	if a.Action != b.Action || len(a.Keys) != len(b.Keys) || len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Keys {
		if a.Keys[i] != b.Keys[i] {
			return false
		}
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// Equal reports whether two snapshots install the same entries in the
// same match order for every table. Priorities are compared only
// through the match order they induce.
func Equal(a, b *Snapshot) bool {
	if a == nil || b == nil {
		return (a == nil || a.NumEntries() == 0) && (b == nil || b.NumEntries() == 0)
	}
	at, bt := a.Tables(), b.Tables()
	if len(at) != len(bt) {
		return false
	}
	for i := range at {
		if at[i] != bt[i] {
			return false
		}
		ae, be := a.Entries(at[i]), b.Entries(bt[i])
		if len(ae) != len(be) {
			return false
		}
		for j := range ae {
			if !entryEqual(ae[j], be[j]) {
				return false
			}
		}
	}
	return true
}

// Diff returns a delta that transforms snapshot a into snapshot b
// (Apply(a') then Equal(a', b) for a clone a' of a). It is table-local
// and canonical rather than minimal: a table whose match-order entry
// list changed at all is rebuilt — every old entry removed in
// descending match order, every new entry added in b's match order —
// which normalizes priorities to b's emission order.
func Diff(a, b *Snapshot) *Delta {
	d := &Delta{}
	tabs := map[string]bool{}
	if a != nil {
		for _, t := range a.Tables() {
			tabs[t] = true
		}
	}
	if b != nil {
		for _, t := range b.Tables() {
			tabs[t] = true
		}
	}
	names := make([]string, 0, len(tabs))
	for t := range tabs {
		names = append(names, t)
	}
	sort.Strings(names)
	for _, t := range names {
		var ae, be []*Entry
		if a != nil {
			ae = a.Entries(t)
		}
		if b != nil {
			be = b.Entries(t)
		}
		same := len(ae) == len(be)
		for i := 0; same && i < len(ae); i++ {
			same = entryEqual(ae[i], be[i])
		}
		if same {
			continue
		}
		for i := len(ae) - 1; i >= 0; i-- {
			d.Ops = append(d.Ops, DeltaOp{Kind: OpRemove, Table: t, Index: i})
		}
		for _, e := range be {
			d.Ops = append(d.Ops, DeltaOp{Kind: OpAdd, Table: t, Entry: cloneEntry(e, -1)})
		}
	}
	return d
}

// FormatDelta renders a delta in the canonical text format ParseDeltas
// reads:
//
//	add Ctl.tbl 10.0.0.1 -> send(3)
//	remove Ctl.tbl 2
//	replace Ctl.tbl 0 10.1.0.0/16 -> send(4)
//
// Entry text is exactly the snapshot entry syntax. A deltas file holds
// one such block per delta, blocks separated by `---` lines.
func FormatDelta(d *Delta) string {
	var b strings.Builder
	for _, op := range d.Ops {
		switch op.Kind {
		case OpAdd:
			fmt.Fprintf(&b, "add %s %s\n", op.Table, FormatEntry(op.Entry))
		case OpRemove:
			fmt.Fprintf(&b, "remove %s %d\n", op.Table, op.Index)
		case OpReplace:
			fmt.Fprintf(&b, "replace %s %d %s\n", op.Table, op.Index, FormatEntry(op.Entry))
		}
	}
	return b.String()
}

// FormatDeltas renders a sequence of deltas as a `---`-separated file.
func FormatDeltas(ds []*Delta) string {
	parts := make([]string, len(ds))
	for i, d := range ds {
		parts[i] = FormatDelta(d)
	}
	return strings.Join(parts, "---\n")
}

// ParseDeltas reads a deltas file: one delta per block of operation
// lines, blocks separated by lines containing only `---`, with `#`
// comments and blank lines ignored. An empty block contributes no
// delta.
func ParseDeltas(src string) ([]*Delta, error) {
	var out []*Delta
	cur := &Delta{}
	flush := func() {
		if len(cur.Ops) > 0 {
			out = append(out, cur)
		}
		cur = &Delta{}
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if line == "---" {
			flush()
			continue
		}
		op, err := parseDeltaOp(line)
		if err != nil {
			return nil, fmt.Errorf("tables: line %d: %w", lineNo+1, err)
		}
		cur.Ops = append(cur.Ops, op)
	}
	flush()
	return out, nil
}

// ParseDelta reads a single delta (no `---` separators allowed).
func ParseDelta(src string) (*Delta, error) {
	ds, err := ParseDeltas(src)
	if err != nil {
		return nil, err
	}
	switch len(ds) {
	case 0:
		return &Delta{}, nil
	case 1:
		return ds[0], nil
	}
	return nil, fmt.Errorf("tables: expected one delta, got %d", len(ds))
}

func parseDeltaOp(line string) (DeltaOp, error) {
	kindStr, rest, ok := strings.Cut(line, " ")
	if !ok {
		return DeltaOp{}, fmt.Errorf("malformed delta op %q", line)
	}
	table, rest, ok := strings.Cut(strings.TrimSpace(rest), " ")
	rest = strings.TrimSpace(rest)
	switch kindStr {
	case "add":
		if !ok || rest == "" {
			return DeltaOp{}, fmt.Errorf("add %s: missing entry", table)
		}
		e, err := parseEntry(rest)
		if err != nil {
			return DeltaOp{}, err
		}
		e.Priority = -1
		return DeltaOp{Kind: OpAdd, Table: table, Entry: e}, nil
	case "remove":
		if !ok || rest == "" {
			return DeltaOp{}, fmt.Errorf("remove %s: missing index", table)
		}
		idx, err := strconv.Atoi(rest)
		if err != nil {
			return DeltaOp{}, fmt.Errorf("remove %s: bad index %q", table, rest)
		}
		return DeltaOp{Kind: OpRemove, Table: table, Index: idx}, nil
	case "replace":
		idxStr, entryStr, ok2 := strings.Cut(rest, " ")
		if !ok || !ok2 || strings.TrimSpace(entryStr) == "" {
			return DeltaOp{}, fmt.Errorf("replace %s: want `replace <table> <index> <entry>`", table)
		}
		idx, err := strconv.Atoi(idxStr)
		if err != nil {
			return DeltaOp{}, fmt.Errorf("replace %s: bad index %q", table, idxStr)
		}
		e, err := parseEntry(strings.TrimSpace(entryStr))
		if err != nil {
			return DeltaOp{}, err
		}
		e.Priority = -1
		return DeltaOp{Kind: OpReplace, Table: table, Index: idx, Entry: e}, nil
	}
	return DeltaOp{}, fmt.Errorf("unknown delta op %q", kindStr)
}
