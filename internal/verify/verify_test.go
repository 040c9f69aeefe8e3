package verify

import (
	"bytes"
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"aquila/internal/encode"
	"aquila/internal/lpi"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/tables"
)

// forwardP4 mirrors the paper's Figure 6 example: forward.p4 changes TCP
// and UDP packets destined to 10.0.0.1 so they go to 10.0.0.2.
const forwardP4 = `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src_ip; bit<32> dst_ip; }
header tcp_t { bit<16> src_port; bit<16> dst_port; }
header udp_t { bit<16> src_port; bit<16> dst_port; }
struct meta_t { bit<1> redirected; }

ethernet_t ethernet;
ipv4_t ipv4;
tcp_t tcp;
udp_t udp;
meta_t ig_md;

parser IngressParser {
	state start {
		extract(ethernet);
		transition select(ethernet.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 {
		extract(ipv4);
		transition select(ipv4.protocol) {
			6: parse_tcp;
			17: parse_udp;
			default: accept;
		}
	}
	state parse_tcp { extract(tcp); transition accept; }
	state parse_udp { extract(udp); transition accept; }
}

control Ingress {
	action send(bit<9> port) { std_meta.egress_spec = port; }
	action rewrite() { ipv4.dst_ip = 10.0.0.2; ig_md.redirected = 1; }
	action a_drop() { drop(); }
	table fwd {
		key = { ipv4.dst_ip : exact; }
		actions = { rewrite; send; a_drop; }
		default_action = send(1);
	}
	apply {
		if (ipv4.isValid()) { fwd.apply(); }
	}
}

deparser IngressDeparser { emit(ethernet); emit(ipv4); emit(tcp); emit(udp); }

pipeline ingress_pipeline {
	parser = IngressParser;
	control = Ingress;
	deparser = IngressDeparser;
}
`

const forwardSpec = `
assumption {
	init {
		pkt.$order == <ethernet ipv4 (tcp|udp)>;
		pkt.ethernet.etherType == 0x0800;
		if (valid(tcp)) pkt.ipv4.protocol == 6;
		pkt.ipv4.dst_ip == 10.0.0.1;
	}
}
assertion {
	pipe_in = {
		ipv4.dst_ip == 10.0.0.2;
		if (match(fwd, rewrite)) modified(pkt.ipv4.dst_ip);
		keep(tcp);
	}
}
program {
	assume(init);
	call(ingress_pipeline);
	assert(pipe_in);
}
`

func mustProg(t *testing.T, src string) *p4.Program {
	t.Helper()
	prog, err := p4.ParseAndCheck("forward", src)
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func mustSpec(t *testing.T, src string) *lpi.Spec {
	t.Helper()
	spec, err := lpi.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

func goodSnapshot() *tables.Snapshot {
	snap := tables.NewSnapshot()
	snap.Add("Ingress.fwd", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0x0A000001)}, Action: "rewrite", Priority: -1})
	return snap
}

func TestHoldsWithCorrectEntries(t *testing.T) {
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("expected all assertions to hold:\n%s", rep.String())
	}
	if rep.Stats.Assertions != 3 {
		t.Fatalf("assertions = %d, want 3", rep.Stats.Assertions)
	}
}

func TestViolatedWithWrongEntry(t *testing.T) {
	snap := tables.NewSnapshot()
	// Wrong action installed: send instead of rewrite.
	snap.Add("Ingress.fwd", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0x0A000001)}, Action: "send", Args: []uint64{4}, Priority: -1})
	rep, err := Run(mustProg(t, forwardP4), snap, mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("expected a violation with the wrong entry")
	}
	v := rep.Violations[0]
	if v.Info == nil || v.Info.Block != "pipe_in" {
		t.Fatalf("violation info = %+v", v.Info)
	}
	if !strings.Contains(v.Cex, "pkt.ipv4.dst_ip = 0xa000001") {
		t.Fatalf("counterexample missing input packet:\n%s", v.Cex)
	}
}

func TestFindFirstVsFindAll(t *testing.T) {
	// Empty table: dst_ip assertion fails AND the redirected-keep fails.
	spec := mustSpec(t, forwardSpec)
	prog := mustProg(t, forwardP4)
	snap := tables.NewSnapshot()
	snap.Add("Ingress.fwd", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0x0A000009)}, Action: "send", Args: []uint64{2}, Priority: -1})

	first, err := Run(prog, snap, spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if first.Holds || len(first.Violations) != 1 {
		t.Fatalf("find-first should report exactly one violation, got %d", len(first.Violations))
	}
	all, err := Run(prog, snap, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if all.Holds || len(all.Violations) < 1 {
		t.Fatal("find-all should report at least one violation")
	}
	if len(all.Violations) < len(first.Violations) {
		t.Fatal("find-all must report at least as many violations as find-first")
	}
}

func TestKeepViolatedWhenFieldRewritten(t *testing.T) {
	// keep(pkt.ipv4.dst_ip) must fail because rewrite changes it.
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
	pkt.ipv4.dst_ip == 10.0.0.1;
}}
assertion { post = { keep(pkt.ipv4.dst_ip); } }
program {
	assume(init);
	call(ingress_pipeline);
	assert(post);
}`)
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("keep(dst_ip) must be violated by the rewrite action")
	}
}

func TestGhostVariablesAndIf(t *testing.T) {
	// Mirror Figure 6's #quit ghost: skip the assertion when dropped.
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
}}
assertion { always_sent = { std_meta.egress_spec == 1; } }
program {
	assume(init);
	call(ingress_pipeline);
	#quit = (std_meta.drop == 1) || (std_meta.to_cpu == 1);
	if (!#quit) {
		assert(always_sent);
	}
}`)
	snap := tables.NewSnapshot() // empty: default send(1) always runs
	snap.Add("Ingress.fwd", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0x0A000099)}, Action: "a_drop", Priority: -1})
	rep, err := Run(mustProg(t, forwardP4), snap, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	// Dropped packets skip the check; all others take the default send(1).
	if !rep.Holds {
		t.Fatalf("ghost-guarded assertion should hold:\n%s", rep.String())
	}
}

func TestMultiPipelinePassing(t *testing.T) {
	// Two pipelines: the first rewrites dst_ip, the second parses the
	// passed packet and must observe the rewritten value.
	src := forwardP4 + `
control Egress {
	action mark() { ipv4.ttl = 99; }
	table egr {
		key = { ipv4.dst_ip : exact; }
		actions = { mark; }
	}
	apply { if (ipv4.isValid()) { egr.apply(); } }
}
pipeline egress_pipeline {
	parser = IngressParser;
	control = Egress;
	deparser = IngressDeparser;
}
`
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
	pkt.ipv4.protocol == 6;
	pkt.ipv4.dst_ip == 10.0.0.1;
}}
assertion {
	after_egress = {
		ipv4.ttl == 99;
		match(egr, mark);
	}
}
program {
	assume(init);
	call(ingress_pipeline);
	call(egress_pipeline);
	assert(after_egress);
}`)
	snap := goodSnapshot()
	snap.Add("Egress.egr", &tables.Entry{
		Keys: []tables.KeyMatch{tables.Exact(0x0A000002)}, Action: "mark", Priority: -1})
	rep, err := Run(mustProg(t, src), snap, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("egress must see the rewritten dst_ip via packet passing:\n%s", rep.String())
	}
}

func TestOutputOrderAssertion(t *testing.T) {
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
	pkt.ipv4.protocol == 6;
}}
assertion { dep = { pkt.$out_order == <ethernet ipv4 tcp>; } }
program {
	assume(init);
	call(ingress_pipeline);
	assert(dep);
}`)
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("deparsed order must match:\n%s", rep.String())
	}
}

func TestAcceptedBuiltinAndWildcardEntries(t *testing.T) {
	// Without a snapshot (any entries), parser-level properties still hold.
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
	pkt.ipv4.protocol == 6;
}}
assertion { parsed = {
	accepted(IngressParser);
	valid(tcp);
	tcp.isValid();
} }
program {
	assume(init);
	call(IngressParser);
	assert(parsed);
}`)
	rep, err := Run(mustProg(t, forwardP4), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("parser acceptance must hold:\n%s", rep.String())
	}
}

func TestWildcardEntriesPropertyViolable(t *testing.T) {
	// Under any entries, "dst_ip becomes 10.0.0.2" is violable (an entry
	// could install send instead).
	rep, err := Run(mustProg(t, forwardP4), nil, mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("property must be violable under arbitrary table entries")
	}
}

func TestGroupsAndQuantifiers(t *testing.T) {
	spec := mustSpec(t, `
group l4ports { tcp.src_port; tcp.dst_port; }
assumption { init {
	pkt.$order == <ethernet ipv4 tcp>;
	pkt.ethernet.etherType == 0x0800;
	pkt.ipv4.protocol == 6;
}}
assertion { ports = {
	keep(l4ports);
	forall(l4ports, keep($f));
	exists(l4ports, keep($f));
} }
program {
	assume(init);
	call(ingress_pipeline);
	assert(ports);
}`)
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("tcp ports are untouched; group properties must hold:\n%s", rep.String())
	}
}

func TestRecircProgramStmt(t *testing.T) {
	src := `
header h_t { bit<8> n; } h_t h;
parser P { state start { extract(h); transition accept; } }
control C {
	apply {
		h.n = h.n + 1;
		if (h.n < 2) { recirculate(); }
	}
}
deparser D { emit(h); }
pipeline pl { parser = P; control = C; deparser = D; }
`
	spec := mustSpec(t, `
assumption { init { pkt.$order == <h>; pkt.h.n == 0; } }
assertion { post = { h.n == 2; } }
program {
	assume(init);
	recirc(pl, 4);
	assert(post);
}`)
	rep, err := Run(mustProg(t, src), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("bounded recirculation must reach n==2:\n%s", rep.String())
	}
}

func TestInitialMetadataSnapshot(t *testing.T) {
	src := `
header h_t { bit<8> v; } h_t h;
struct m_t { bit<8> x; } m_t md;
parser P { state start { extract(h); transition accept; } }
control C { apply { md.x = md.x + 1; } }
pipeline pl { parser = P; control = C; }
`
	spec := mustSpec(t, `
assumption { init { pkt.$order == <h>; md.x == 5; } }
assertion { post = { md.x == @md.x + 1; } }
program {
	assume(init);
	call(pl);
	assert(post);
}`)
	rep, err := Run(mustProg(t, src), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("@md.x must snapshot the initial metadata value:\n%s", rep.String())
	}
}

func TestSpecErrors(t *testing.T) {
	prog := mustProg(t, forwardP4)
	bad := []string{
		`program { assume(nosuch); }`,
		`program { assert(nosuch); }`,
		`program { call(nosuch); }`,
		`assertion { a = { match(nosuch, x); } } program { assert(a); }`,
		`assertion { a = { match(fwd, nosuch); } } program { assert(a); }`,
		`assertion { a = { nosuch.field == 1; } } program { assert(a); }`,
		`assertion { a = { keep(nosuch); } } program { assert(a); }`,
		`assertion { a = { #undefined == 1; } } program { assert(a); }`,
		`assertion { a = { pkt.$order == <nosuchhdr>; } } program { assert(a); }`,
		`assertion { a = { forall(nogroup, $f == 1); } } program { assert(a); }`,
	}
	for _, src := range bad {
		spec, err := lpi.Parse(src)
		if err != nil {
			continue // parse-level rejection is fine too
		}
		if _, err := Run(prog, nil, spec, Options{}); err == nil {
			t.Errorf("no error for spec %q", src)
		}
	}
}

func TestSpecParseErrors(t *testing.T) {
	bad := []string{
		`bogus_section { }`,
		`program { frobnicate(x); }`,
		`assumption { b { x == ; } }`,
		`assumption { b { pkt.$order == <eth; } }`,
		`program { if (x == 1) { assume(b) } }`, // missing semicolon
	}
	for _, src := range bad {
		if _, err := lpi.Parse(src); err == nil {
			t.Errorf("no parse error for %q", src)
		}
	}
}

func TestTreeEncodingMatchesSequentialVerdict(t *testing.T) {
	for _, mode := range []encode.ParserMode{encode.ParserSequential, encode.ParserTree} {
		rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), mustSpec(t, forwardSpec),
			Options{FindAll: true, Encode: encode.Options{Parser: mode}})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Holds {
			t.Fatalf("mode %v: spec must hold", mode)
		}
	}
}

func TestReportString(t *testing.T) {
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.String()
	if !strings.Contains(s, "verified") || !strings.Contains(s, "stats:") {
		t.Fatalf("report = %s", s)
	}
}

func TestSpecLoC(t *testing.T) {
	if n := lpi.SpecLoC(forwardSpec); n < 15 || n > 30 {
		t.Fatalf("SpecLoC = %d", n)
	}
}

func TestBlocklistExtraction(t *testing.T) {
	// Any-entries verification: the rewrite-to-10.0.0.2 property is
	// violable; the blocklist must name the fwd table behaviours of the
	// counterexamples.
	rep, err := Run(mustProg(t, forwardP4), nil, mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Holds {
		t.Fatal("expected violations under any entries")
	}
	bl := rep.Blocklist()
	if len(bl) == 0 {
		t.Fatal("expected blocklist entries")
	}
	found := false
	for _, b := range bl {
		if b.Table == "Ingress.fwd" {
			found = true
		}
	}
	if !found {
		t.Fatalf("blocklist %v should mention Ingress.fwd", bl)
	}
	// With a snapshot installed, no wildcard behaviours exist.
	rep2, err := Run(mustProg(t, forwardP4), goodSnapshot(), mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rep2.Blocklist()); n != 0 {
		t.Fatalf("snapshot run should have no blocklist, got %d", n)
	}
}

func TestConstEntriesUsedWhenNoSnapshot(t *testing.T) {
	src := `
header h_t { bit<8> k; bit<8> v; } h_t h;
parser P { state start { extract(h); transition accept; } }
control C {
	action set(bit<8> x) { h.v = x; }
	action zero() { h.v = 0; }
	table t {
		key = { h.k : exact; }
		actions = { set; zero; }
		default_action = zero;
		entries = {
			(1) : set(11);
			(2) : set(22);
		}
	}
	apply { t.apply(); }
}
pipeline pl { parser = P; control = C; }
`
	spec := mustSpec(t, `
assumption { init { pkt.$order == <h>; pkt.h.k == 2; } }
assertion { post = { h.v == 22; match(t, set); } }
program { assume(init); call(pl); assert(post); }`)
	rep, err := Run(mustProg(t, src), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("const entries must be used when no snapshot overrides them:\n%s", rep.String())
	}
	// A snapshot on the same table overrides the const entries.
	snap := tables.NewSnapshot()
	snap.Add("C.t", &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(2)}, Action: "set", Args: []uint64{99}, Priority: -1})
	spec2 := mustSpec(t, `
assumption { init { pkt.$order == <h>; pkt.h.k == 2; } }
assertion { post = { h.v == 99; } }
program { assume(init); call(pl); assert(post); }`)
	rep2, err := Run(mustProg(t, src), snap, spec2, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Holds {
		t.Fatalf("snapshot must override const entries:\n%s", rep2.String())
	}
}

func TestBitvectorPacketModeThroughLPI(t *testing.T) {
	// Properties that do not mention pkt.$order work in the bit-vector
	// packet baseline too.
	spec := mustSpec(t, `
assertion { post = { if (applied(Ingress.fwd)) valid(ipv4); } }
program { call(ingress_pipeline); assert(post); }`)
	rep, err := Run(mustProg(t, forwardP4), goodSnapshot(), spec,
		Options{FindAll: true, Encode: encode.Options{Packet: encode.PacketBitvector}})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("guarded apply must satisfy the property in bitvector mode:\n%s", rep.String())
	}
}

func TestResubmitProgramStmt(t *testing.T) {
	// Resubmission re-parses the ORIGINAL packet: a field rewritten in the
	// first pass is restored by the re-parse, but metadata carries over.
	src := `
header h_t { bit<8> n; } h_t h;
struct m_t { bit<8> rounds; bit<8> seen; } m_t md;
parser P { state start { extract(h); transition accept; } }
control C {
	apply {
		if (md.rounds == 1) { md.seen = h.n; } // what the 2nd pass parsed
		h.n = 77;
		md.rounds = md.rounds + 1;
		if (md.rounds < 2) { resubmit(); }
	}
}
deparser D { emit(h); }
pipeline pl { parser = P; control = C; deparser = D; }
`
	spec := mustSpec(t, `
assumption { init { pkt.$order == <h>; pkt.h.n == 5; md.rounds == 0; } }
assertion { post = {
	md.rounds == 2;
	// Resubmission re-parses the ORIGINAL wire image: the second pass
	// must have observed 5 (a recirculated packet would carry 77).
	md.seen == 5;
} }
program {
	assume(init);
	resubmit(pl, 4);
	assert(post);
}`)
	rep, err := Run(mustProg(t, src), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("resubmission semantics violated:\n%s", rep.String())
	}
}

func TestCountersAndMeters(t *testing.T) {
	src := `
header h_t { bit<8> v; bit<8> color; } h_t h;
counter<bit<32>>(256) pkts;
meter<bit<8>>(256) rate;
parser P { state start { extract(h); transition accept; } }
control C {
	apply {
		pkts.count(0);
		pkts.count(5);
		rate.execute_meter(0, h.color);
		if (h.color > 1) { drop(); }
	}
}
pipeline pl { parser = P; control = C; }
`
	spec := mustSpec(t, `
assumption { init { pkt.$order == <h>; reg.pkts == 0; } }
assertion { post = {
	reg.pkts == 2;
	if (h.color > 1) std_meta.drop == 1;
} }
program { assume(init); call(pl); assert(post); }`)
	rep, err := Run(mustProg(t, src), nil, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("counter/meter semantics violated:\n%s", rep.String())
	}
	// The meter colour is havoced: a concrete claim about it is violable.
	spec2 := mustSpec(t, `
assumption { init { pkt.$order == <h>; } }
assertion { post = { h.color == 0; } }
program { assume(init); call(pl); assert(post); }`)
	rep2, err := Run(mustProg(t, src), nil, spec2, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Holds {
		t.Fatal("meter colour must be unconstrained")
	}
}

func TestJSONReport(t *testing.T) {
	rep, err := Run(mustProg(t, forwardP4), nil, mustSpec(t, forwardSpec), Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	for _, want := range []string{`"holds": false`, `"label"`, `"counterexample"`, `"cnf_clauses"`} {
		if !strings.Contains(s, want) {
			t.Fatalf("JSON missing %q:\n%s", want, s)
		}
	}
}

// TestFigure2RedArrowPath reproduces the paper's flagship hyper-converged
// composition (Figure 2): Internet traffic follows switch ingress → load
// balancer egress → load balancer ingress → scheduler egress, with table
// entries steering the function chain and values passed between pipelines.
func TestFigure2RedArrowPath(t *testing.T) {
	src := `
header ethernet_t { bit<48> dst; bit<48> src; bit<16> etherType; }
header ipv4_t { bit<8> ttl; bit<8> protocol; bit<32> src_ip; bit<32> dst_ip; }
struct chain_t { bit<4> stage; bit<9> out_port; }

ethernet_t eth;
ipv4_t ipv4;
chain_t chain;

parser CommonParser {
	state start {
		extract(eth);
		transition select(eth.etherType) {
			0x0800: parse_ipv4;
			default: accept;
		}
	}
	state parse_ipv4 { extract(ipv4); transition accept; }
}

control SwitchIngress {
	action to_lb() { chain.stage = 1; }
	action a_drop() { drop(); }
	table steer {
		key = { ipv4.dst_ip : lpm; }
		actions = { to_lb; a_drop; }
		default_action = a_drop;
	}
	apply { if (ipv4.isValid()) { steer.apply(); } }
}

control LBEgress {
	action vip_dnat(bit<32> dip) { ipv4.dst_ip = dip; chain.stage = 2; }
	table vip {
		key = { ipv4.dst_ip : exact; }
		actions = { vip_dnat; }
	}
	apply { if (chain.stage == 1) { vip.apply(); } }
}

control LBIngress {
	action conn_select() { chain.stage = 3; }
	table conn {
		key = { ipv4.dst_ip : lpm; }
		actions = { conn_select; }
	}
	apply { if (chain.stage == 2) { conn.apply(); } }
}

control SchedEgress {
	action enqueue(bit<9> port) { chain.stage = 4; chain.out_port = port; std_meta.egress_spec = port; }
	table sched {
		key = { ipv4.dst_ip : exact; }
		actions = { enqueue; }
	}
	apply { if (chain.stage == 3) { sched.apply(); } }
}

deparser D { emit(eth); emit(ipv4); }

pipeline switch_in { parser = CommonParser; control = SwitchIngress; deparser = D; }
pipeline lb_eg { parser = CommonParser; control = LBEgress; deparser = D; }
pipeline lb_in { parser = CommonParser; control = LBIngress; deparser = D; }
pipeline sched_eg { parser = CommonParser; control = SchedEgress; deparser = D; }
`
	spec := mustSpec(t, `
assumption { init {
	pkt.$order == <eth ipv4>;
	pkt.eth.etherType == 0x0800;
	pkt.ipv4.dst_ip == 10.9.0.1;     // the VIP
} }
assertion {
	red_arrow = {
		// The packet traversed the whole function chain in order...
		match(steer, to_lb);
		match(vip, vip_dnat);
		match(conn, conn_select);
		match(sched, enqueue);
		chain.stage == 4;
		// ...the NAT rewrote the VIP to the DIP before scheduling...
		ipv4.dst_ip == 172.16.0.5;
		// ...and the packet leaves on the scheduled port.
		std_meta.egress_spec == 44;
	}
}
program {
	assume(init);
	call(switch_in);
	call(lb_eg);
	call(lb_in);
	call(sched_eg);
	assert(red_arrow);
}`)
	snap := tables.NewSnapshot()
	snap.Add("SwitchIngress.steer", &tables.Entry{Keys: []tables.KeyMatch{tables.LPM(0x0A090000, 16, 32)}, Action: "to_lb", Priority: -1})
	snap.Add("LBEgress.vip", &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(0x0A090001)}, Action: "vip_dnat", Args: []uint64{0xAC100005}, Priority: -1})
	snap.Add("LBIngress.conn", &tables.Entry{Keys: []tables.KeyMatch{tables.LPM(0xAC100000, 12, 32)}, Action: "conn_select", Priority: -1})
	snap.Add("SchedEgress.sched", &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(0xAC100005)}, Action: "enqueue", Args: []uint64{44}, Priority: -1})

	rep, err := Run(mustProg(t, src), snap, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Holds {
		t.Fatalf("the Figure 2 red-arrow chain must verify:\n%s", rep.String())
	}
	// Break the steering entry: the whole chain collapses and every
	// chain assertion is reported.
	snap2 := snap.Clone()
	snap2.Remove("SwitchIngress.steer")
	snap2.Add("SwitchIngress.steer", &tables.Entry{Keys: []tables.KeyMatch{tables.LPM(0x0B000000, 16, 32)}, Action: "to_lb", Priority: -1})
	rep2, err := Run(mustProg(t, src), snap2, spec, Options{FindAll: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Holds || len(rep2.Violations) < 5 {
		t.Fatalf("broken steering must cascade (got %d violations)", len(rep2.Violations))
	}
}

// TestOptionsValidate pins the incompatible-combination errors every CLI
// surfaces instead of silently preferring one mode: one row per Stream
// and Session rule.
func TestOptionsValidate(t *testing.T) {
	ok := []Options{
		{},
		{FindAll: true, Incremental: true, Parallel: 4},
		{FindAll: true, Stream: true, Parallel: 1},
		{FindAll: true, Session: true, Parallel: 1},
	}
	for i, o := range ok {
		if err := o.Validate(); err != nil {
			t.Errorf("ok[%d] %+v: unexpected error %v", i, o, err)
		}
	}
	bad := []struct {
		opts Options
		frag string
	}{
		{Options{FindAll: true, Stream: true, Incremental: true}, "-stream"},
		{Options{FindAll: true, Stream: true, Parallel: 4}, "-stream"},
		{Options{Session: true}, "find-all"},
		{Options{FindAll: true, Session: true, Incremental: true}, "-incremental"},
		{Options{FindAll: true, Session: true, Stream: true}, "-stream"},
		{Options{FindAll: true, Session: true, Parallel: 4}, "-parallel"},
	}
	for i, c := range bad {
		err := c.opts.Validate()
		if err == nil {
			t.Errorf("bad[%d] %+v: Validate() = nil, want error", i, c.opts)
			continue
		}
		if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("bad[%d]: error %q does not mention %q", i, err, c.frag)
		}
	}
	// RunWithEnv must refuse before doing any work.
	prog, spec := dcGateway(t)
	if _, err := Run(prog, nil, spec, Options{FindAll: true, Stream: true, Parallel: 4}); err == nil {
		t.Error("Run accepted -stream with -parallel > 1")
	}
}

// TestCancelEveryEngine: a pre-set Options.Cancel token reaches every
// checking solver, so each engine reports ErrBudget instead of a verdict
// — find-first and its preprocessed re-solve included.
func TestCancelEveryEngine(t *testing.T) {
	prog, spec := dcGateway(t)
	for _, c := range []struct {
		name string
		opts Options
	}{
		{"find-first", Options{}},
		{"find-first-preprocess", Options{Preprocess: true}},
		{"fresh-w1", Options{FindAll: true, Parallel: 1}},
		{"fresh-w2", Options{FindAll: true, Parallel: 2}},
		{"incremental-w1", Options{FindAll: true, Incremental: true, Parallel: 1}},
		{"incremental-w2", Options{FindAll: true, Incremental: true, Parallel: 2}},
		{"stream", Options{FindAll: true, Parallel: 1, Stream: true, Preprocess: true, Slice: true}},
	} {
		var tok atomic.Bool
		tok.Store(true)
		opts := c.opts
		opts.Cancel = &tok
		if _, err := Run(prog, nil, spec, opts); !errors.Is(err, ErrBudget) {
			t.Errorf("%s: pre-set cancel token: err = %v, want ErrBudget", c.name, err)
		}
	}
}

// TestRunByteStableAcrossRuns pins cross-Run determinism: two independent
// Runs of the same program in the same process must produce identical
// canonical bytes. The skewed-telemetry program is the regression case —
// its adder-identity guard has symmetric counterexample candidates, so
// any map-iteration-order leak into term construction (gcl's branch merge
// once had one) shows up as a flipped model here. The bench sweeps and
// the CI canonical-bytes smoke compare reports across processes; this is
// the contract they stand on.
func TestRunByteStableAcrossRuns(t *testing.T) {
	bm := progs.SkewedBench()
	prog, err := bm.Parse()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := lpi.Parse(progs.InvalidHeaderAccessSpec(prog, bm.Calls))
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{FindAll: true, Parallel: 1, Preprocess: true, Slice: true}
	var want []byte
	for i := 0; i < 3; i++ {
		rep, err := Run(prog, nil, spec, opts)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		got, err := rep.CanonicalJSON()
		if err != nil {
			t.Fatalf("run %d: canonical: %v", i, err)
		}
		if want == nil {
			want = got
		} else if !bytes.Equal(want, got) {
			t.Fatalf("run %d: canonical report differs from run 0", i)
		}
	}
}
