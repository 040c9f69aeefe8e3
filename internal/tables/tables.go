// Package tables models control-plane table-entry snapshots. Aquila
// verifies either a data-plane snapshot (P4 code + deployed entries) or the
// program under any possible entries (§2); this package provides the entry
// representation and a text format for snapshots.
package tables

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Entry is one installed table entry.
type Entry struct {
	// Keys holds one match per table key, in key order.
	Keys []KeyMatch
	// Action is the action name to run on match.
	Action string
	// Args are the action's parameter values.
	Args []uint64
	// Priority orders entries; lower value matches first.
	Priority int
}

// KeyMatch is the match condition for one key component.
type KeyMatch struct {
	Value uint64
	// Mask is the ternary mask (bits set participate in the match).
	// For exact matches the mask is all-ones; for wildcards zero.
	Mask uint64
	// PrefixLen is used for lpm keys (-1 when not lpm).
	PrefixLen int
	// IsRange selects range matching [Value, High].
	IsRange bool
	High    uint64
}

// Exact returns an exact KeyMatch.
func Exact(v uint64) KeyMatch { return KeyMatch{Value: v, Mask: ^uint64(0), PrefixLen: -1} }

// Ternary returns a value-&-mask KeyMatch.
func Ternary(v, mask uint64) KeyMatch { return KeyMatch{Value: v, Mask: mask, PrefixLen: -1} }

// LPM returns a longest-prefix KeyMatch for a key of the given width.
func LPM(v uint64, prefixLen, width int) KeyMatch {
	var mask uint64
	for i := 0; i < prefixLen; i++ {
		mask |= 1 << uint(width-1-i)
	}
	return KeyMatch{Value: v & mask, Mask: mask, PrefixLen: prefixLen}
}

// Wildcard returns a match-anything KeyMatch.
func Wildcard() KeyMatch { return KeyMatch{Mask: 0, PrefixLen: -1} }

// Range returns a range KeyMatch matching lo <= key <= hi.
func Range(lo, hi uint64) KeyMatch {
	return KeyMatch{Value: lo, High: hi, IsRange: true, PrefixLen: -1}
}

// Snapshot maps fully-qualified table names ("Control.table") to entries.
type Snapshot struct {
	entries map[string][]*Entry

	// order caches each table's match order, the sort Entries returns,
	// from the first time it is needed until Add, Remove or a delta
	// changes the table. A cached slice is never modified: ApplyCopy
	// shares it with the snapshot it copies. Readers fill order, so mu
	// guards it between concurrent readers; the methods that change the
	// snapshot need it to themselves, as they always did, and take no
	// lock.
	mu    sync.Mutex
	order map[string][]*Entry
}

// NewSnapshot returns an empty snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{entries: map[string][]*Entry{}, order: map[string][]*Entry{}}
}

// Add appends an entry to a table; priority defaults to insertion order if
// negative.
func (s *Snapshot) Add(table string, e *Entry) {
	if e.Priority < 0 {
		e.Priority = len(s.entries[table])
	}
	s.entries[table] = append(s.entries[table], e)
	delete(s.order, table)
}

// Entries returns a table's entries sorted by priority (LPM entries sort by
// descending prefix length first, mirroring switch behaviour). The slice
// is the caller's; the entries are the snapshot's. The order is cached
// per table, so an entry whose priority or keys change in place keeps
// its old position until Add, Remove or a delta changes its table; a
// Clone orders afresh.
func (s *Snapshot) Entries(table string) []*Entry {
	return append([]*Entry(nil), s.ordered(table)...)
}

// ordered returns the table's cached match order, sorting it on first
// use. The caller must not modify the slice.
func (s *Snapshot) ordered(table string) []*Entry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if es, ok := s.order[table]; ok {
		return es
	}
	es := append([]*Entry(nil), s.entries[table]...)
	sort.SliceStable(es, func(i, j int) bool {
		pi, pj := maxPrefix(es[i]), maxPrefix(es[j])
		if pi != pj {
			return pi > pj
		}
		return es[i].Priority < es[j].Priority
	})
	if len(es) > 0 {
		s.order[table] = es
	}
	return es
}

func maxPrefix(e *Entry) int {
	p := -1
	for _, k := range e.Keys {
		if k.PrefixLen > p {
			p = k.PrefixLen
		}
	}
	return p
}

// Has reports whether the snapshot contains entries for the table.
func (s *Snapshot) Has(table string) bool { return len(s.entries[table]) > 0 }

// Tables returns the table names present, sorted.
func (s *Snapshot) Tables() []string {
	out := make([]string, 0, len(s.entries))
	for k := range s.entries {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// NumEntries returns the total number of entries in the snapshot.
func (s *Snapshot) NumEntries() int {
	n := 0
	for _, es := range s.entries {
		n += len(es)
	}
	return n
}

// Clone returns a deep copy of the snapshot. Clone of nil is nil (the
// "verify under any entries" snapshot clones to itself).
func (s *Snapshot) Clone() *Snapshot {
	if s == nil {
		return nil
	}
	c := NewSnapshot()
	for t, es := range s.entries {
		for _, e := range es {
			ne := *e
			ne.Keys = append([]KeyMatch(nil), e.Keys...)
			ne.Args = append([]uint64(nil), e.Args...)
			c.entries[t] = append(c.entries[t], &ne)
		}
	}
	return c
}

// Remove deletes all entries of a table.
func (s *Snapshot) Remove(table string) {
	delete(s.entries, table)
	delete(s.order, table)
}

// ParseSnapshot reads the snapshot text format:
//
//	# comment
//	table Ctl.fwd {
//	  10.0.0.1 -> send(3)
//	  10.1.0.0/16 -> send(4)          # lpm
//	  0x0a000000 &&& 0xff000000 -> send(5)   # ternary
//	  1..9, 7 -> mark(2)              # range + second exact key
//	  _ -> drop()
//	}
func ParseSnapshot(src string) (*Snapshot, error) {
	snap := NewSnapshot()
	var table string
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.Index(line, "#"); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		errf := func(format string, args ...interface{}) error {
			return fmt.Errorf("tables: line %d: %s", lineNo+1, fmt.Sprintf(format, args...))
		}
		switch {
		case strings.HasPrefix(line, "table "):
			if table != "" {
				return nil, errf("nested table block")
			}
			rest := strings.TrimSpace(strings.TrimPrefix(line, "table "))
			rest = strings.TrimSuffix(rest, "{")
			table = strings.TrimSpace(rest)
			if table == "" {
				return nil, errf("missing table name")
			}
		case line == "}":
			if table == "" {
				return nil, errf("unmatched closing brace")
			}
			table = ""
		default:
			if table == "" {
				return nil, errf("entry outside table block")
			}
			e, err := parseEntry(line)
			if err != nil {
				return nil, errf("%v", err)
			}
			e.Priority = -1
			snap.Add(table, e)
		}
	}
	if table != "" {
		return nil, fmt.Errorf("tables: unterminated table block %q", table)
	}
	return snap, nil
}

func parseEntry(line string) (*Entry, error) {
	parts := strings.SplitN(line, "->", 2)
	if len(parts) != 2 {
		return nil, fmt.Errorf("missing '->' in entry %q", line)
	}
	e := &Entry{}
	for _, k := range strings.Split(parts[0], ",") {
		k = strings.TrimSpace(k)
		km, err := parseKeyMatch(k)
		if err != nil {
			return nil, err
		}
		e.Keys = append(e.Keys, km)
	}
	act := strings.TrimSpace(parts[1])
	open := strings.Index(act, "(")
	if open < 0 {
		e.Action = act
		return e, nil
	}
	if !strings.HasSuffix(act, ")") {
		return nil, fmt.Errorf("malformed action call %q", act)
	}
	e.Action = strings.TrimSpace(act[:open])
	argStr := strings.TrimSpace(act[open+1 : len(act)-1])
	if argStr != "" {
		for _, a := range strings.Split(argStr, ",") {
			v, err := parseNum(strings.TrimSpace(a))
			if err != nil {
				return nil, err
			}
			e.Args = append(e.Args, v)
		}
	}
	return e, nil
}

func parseKeyMatch(s string) (KeyMatch, error) {
	switch {
	case s == "_":
		return Wildcard(), nil
	case strings.Contains(s, "&&&"):
		parts := strings.SplitN(s, "&&&", 2)
		v, err := parseNum(strings.TrimSpace(parts[0]))
		if err != nil {
			return KeyMatch{}, err
		}
		m, err := parseNum(strings.TrimSpace(parts[1]))
		if err != nil {
			return KeyMatch{}, err
		}
		return Ternary(v, m), nil
	case strings.Contains(s, ".."):
		parts := strings.SplitN(s, "..", 2)
		lo, err := parseNum(strings.TrimSpace(parts[0]))
		if err != nil {
			return KeyMatch{}, err
		}
		hi, err := parseNum(strings.TrimSpace(parts[1]))
		if err != nil {
			return KeyMatch{}, err
		}
		return Range(lo, hi), nil
	case strings.Contains(s, "/"):
		parts := strings.SplitN(s, "/", 2)
		v, err := parseNum(strings.TrimSpace(parts[0]))
		if err != nil {
			return KeyMatch{}, err
		}
		var plen int
		if _, err := fmt.Sscanf(strings.TrimSpace(parts[1]), "%d", &plen); err != nil {
			return KeyMatch{}, fmt.Errorf("bad prefix length %q", parts[1])
		}
		// Width for LPM is assumed 32 in the text format (IPv4 prefixes);
		// the encoder re-derives the mask from the real key width.
		return LPM(v, plen, 32), nil
	default:
		v, err := parseNum(s)
		if err != nil {
			return KeyMatch{}, err
		}
		return Exact(v), nil
	}
}

func parseNum(s string) (uint64, error) {
	if strings.Count(s, ".") == 3 {
		var a, b, c, d uint64
		if _, err := fmt.Sscanf(s, "%d.%d.%d.%d", &a, &b, &c, &d); err == nil &&
			a < 256 && b < 256 && c < 256 && d < 256 {
			return a<<24 | b<<16 | c<<8 | d, nil
		}
		return 0, fmt.Errorf("bad dotted quad %q", s)
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}
