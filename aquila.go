// Package aquila is a from-scratch Go implementation of Aquila, the
// practically usable verification system for production-scale programmable
// data planes described in the SIGCOMM 2021 paper by Tian, Gao, Liu, Zhai
// et al. (Alibaba / Harvard / Nanjing University).
//
// The package is the public façade over the full pipeline:
//
//	P4 program + table entries + LPI specification
//	    → component GCL encoding   (sequential encoding, ABV tables, §4)
//	    → whole-switch composition (LPI program block, §3)
//	    → verification conditions  (predicate transformers)
//	    → SMT solving              (built-in CDCL + QF_BV bit-blasting)
//	    → verdict / counterexample → bug localization (§5)
//
// Quick start:
//
//	prog, _ := aquila.ParseProgram("forward.p4", p4Source)
//	spec, _ := aquila.ParseSpec(lpiSource)
//	snap, _ := aquila.ParseSnapshot(entriesText) // or nil: any entries
//	report, _ := aquila.Verify(prog, snap, spec, aquila.Options{FindAll: true})
//	if !report.Holds {
//	    result, _ := aquila.Localize(prog, snap, spec, aquila.Options{})
//	    fmt.Print(result)
//	}
//
// The implementation is pure Go with no dependencies outside the standard
// library; the SMT backend the paper delegates to Z3 is implemented in
// internal/sat and internal/smt (see DESIGN.md for the substitution
// rationale).
package aquila

import (
	"fmt"
	"os"
	"sort"

	"aquila/internal/encode"
	"aquila/internal/localize"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/tables"
	"aquila/internal/validate"
	"aquila/internal/verify"
)

// Program is a parsed and type-checked P4lite program.
type Program = p4.Program

// Spec is a parsed LPI specification (§3 of the paper).
type Spec = lpi.Spec

// Snapshot is a set of installed table entries (§2: a data-plane
// snapshot). A nil snapshot verifies under any possible entries.
type Snapshot = tables.Snapshot

// Report is a verification outcome with violations, counterexamples and
// cost statistics.
type Report = verify.Report

// Violation is a violated assertion with its counterexample.
type Violation = verify.Violation

// LocalizeResult is a bug-localization outcome (§5).
type LocalizeResult = localize.Result

// ValidationResult is a self-validation outcome (§6).
type ValidationResult = validate.Result

// Localization result kinds.
const (
	BugNone       = localize.KindNone
	BugTableEntry = localize.KindTableEntry
	BugProgram    = localize.KindProgram
)

// Encoding mode re-exports; the zero values are the paper's configuration.
const (
	ParserSequential = encode.ParserSequential
	ParserTree       = encode.ParserTree
	TableABVTree     = encode.TableABVTree
	TableABVLinear   = encode.TableABVLinear
	TableNaive       = encode.TableNaive
	PacketKV         = encode.PacketKV
	PacketBitvector  = encode.PacketBitvector
)

// EncodeOptions selects encoding modes (see internal/encode.Options).
type EncodeOptions = encode.Options

// Options configures verification and localization runs.
type Options struct {
	// FindAll checks every assertion one by one; the default stops at the
	// first violated assertion.
	FindAll bool
	// Budget bounds SMT effort per query in SAT conflicts (0: unlimited).
	Budget int64
	// Parallel is the worker count for find-all verification and
	// localization re-checks: 0 uses runtime.GOMAXPROCS(0), 1 forces the
	// serial path. Reports are byte-identical at every setting.
	Parallel int
	// Incremental enables shared-prefix solving for find-all verification
	// and localization: each worker shard blasts the common VC prefix once
	// and checks its assertions via activation literals, reusing the CNF
	// and learned clauses. Verdicts and reports stay byte-identical to the
	// default fresh-solver mode.
	Incremental bool
	// Simplify runs the algebraic simplification pass over the shared
	// term DAG before blasting. Verification and localization consult it
	// only in Incremental mode; SelfValidate applies it directly to its
	// refinement queries.
	Simplify bool
	// Preprocess enables SatELite-style CNF preprocessing (subsumption,
	// self-subsuming resolution, bounded variable elimination) in the SAT
	// cores of verification, localization filtering, and self-validation.
	// Verdicts, models, and reports are unchanged; the search gets cheaper.
	Preprocess bool
	// Slice enables per-assertion cone-of-influence slicing for find-all
	// verification: VC conjuncts that cannot influence an assertion's
	// checked condition are dropped before blasting. Reports stay
	// byte-identical to unsliced mode.
	Slice bool
	// Stream makes find-all verification release transient per-assertion
	// terms as it goes, bounding peak term memory by the VC plus one
	// assertion's slice instead of the whole run. Forces the serial path;
	// reports stay byte-identical to the default fresh-solver mode.
	Stream bool
	// Encode selects the encoding modes; the zero value is the paper's
	// configuration (sequential encoding, ABV lookup tree, KV packets).
	Encode EncodeOptions
}

func (o Options) verifyOptions() verify.Options {
	return verify.Options{Encode: o.Encode, FindAll: o.FindAll, Budget: o.Budget,
		Parallel: o.Parallel, Incremental: o.Incremental, Simplify: o.Simplify,
		Preprocess: o.Preprocess, Slice: o.Slice, Stream: o.Stream}
}

// ParseProgram parses and type-checks P4lite source.
func ParseProgram(name, source string) (*Program, error) {
	return p4.ParseAndCheck(name, source)
}

// LoadProgram reads and parses a P4lite file.
func LoadProgram(path string) (*Program, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aquila: %w", err)
	}
	return ParseProgram(path, string(data))
}

// ParseSpec parses an LPI specification.
func ParseSpec(source string) (*Spec, error) { return lpi.Parse(source) }

// LoadSpec reads and parses an LPI file.
func LoadSpec(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aquila: %w", err)
	}
	return ParseSpec(string(data))
}

// ParseSnapshot parses the table-entry snapshot text format.
func ParseSnapshot(source string) (*Snapshot, error) {
	return tables.ParseSnapshot(source)
}

// LoadSnapshot reads and parses a snapshot file.
func LoadSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aquila: %w", err)
	}
	return ParseSnapshot(string(data))
}

// NewSnapshot returns an empty, mutable snapshot.
func NewSnapshot() *Snapshot { return tables.NewSnapshot() }

// Delta is an ordered batch of table-entry operations (add, replace,
// remove) applied atomically to a snapshot.
type Delta = tables.Delta

// Session is the delta re-verification engine: load a program once, then
// re-verify cheaply per Delta as the control plane churns table entries
// (warm term context, memoized slices, shared incremental solver, cached
// verdict replay). Every Apply report is canonically byte-identical to a
// fresh Verify of the mutated snapshot.
type Session = verify.Session

// ParseDelta parses one delta in the text format ("add Ctl.tbl KEYS ->
// action(args)" / "replace Ctl.tbl INDEX KEYS -> action" / "remove
// Ctl.tbl INDEX", one op per line).
func ParseDelta(source string) (*Delta, error) { return tables.ParseDelta(source) }

// ParseDeltas parses a "---"-separated sequence of deltas.
func ParseDeltas(source string) ([]*Delta, error) { return tables.ParseDeltas(source) }

// LoadDeltas reads and parses a delta sequence file.
func LoadDeltas(path string) ([]*Delta, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("aquila: %w", err)
	}
	return ParseDeltas(string(data))
}

// NewSession builds a warm re-verification session for prog under snap
// (nil: start from any-entries) and runs the baseline verification.
func NewSession(prog *Program, snap *Snapshot, spec *Spec, opts Options) (*Session, error) {
	return verify.NewSession(prog, snap, spec, opts.verifyOptions())
}

// Verify checks prog (under snap's entries, or any entries when snap is
// nil) against spec (§4 of the paper).
func Verify(prog *Program, snap *Snapshot, spec *Spec, opts Options) (*Report, error) {
	return verify.Run(prog, snap, spec, opts.verifyOptions())
}

// Localize finds violated assertions and localizes the responsible table
// entries or program statements (§5 of the paper).
func Localize(prog *Program, snap *Snapshot, spec *Spec, opts Options) (*LocalizeResult, error) {
	return localize.Localize(prog, snap, spec, localize.Options{Verify: opts.verifyOptions()})
}

// SelfValidate checks Aquila's own encoder against an independent
// reference semantics for the named components (§6 of the paper).
func SelfValidate(prog *Program, snap *Snapshot, components []string, opts Options) (*ValidationResult, error) {
	return validate.ValidateWith(prog, snap, components, opts.Encode,
		validate.Config{Simplify: opts.Simplify, Preprocess: opts.Preprocess})
}

// SpecLoC counts the effective specification lines of LPI source — the
// spec-complexity metric of Table 2 / Figure 3.
func SpecLoC(source string) int { return lpi.SpecLoC(source) }

// InferUndefinedBehaviorSpec generates an LPI specification asserting that
// no table is ever applied while a header it reads is invalid — the
// bf4-style automatically-inferred undefined-behaviour annotations the
// paper discusses (§1, §9: service-specific properties must be written by
// hand, but invalid-header checks can be inferred). calls is the pipeline
// call order; when empty, every pipeline is called in name order.
func InferUndefinedBehaviorSpec(prog *Program, calls []string) (string, *Spec, error) {
	if len(calls) == 0 {
		for name := range prog.Pipelines {
			calls = append(calls, name)
		}
		sort.Strings(calls)
	}
	if len(calls) == 0 {
		return "", nil, fmt.Errorf("aquila: program declares no pipelines; pass explicit calls")
	}
	src := progs.InvalidHeaderAccessSpec(prog, calls)
	spec, err := lpi.Parse(src)
	if err != nil {
		return "", nil, err
	}
	return src, spec, nil
}
