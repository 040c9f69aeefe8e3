package ledger

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"aquila/internal/lpi"
	"aquila/internal/obs"
	"aquila/internal/p4"
	"aquila/internal/progs"
	"aquila/internal/serve"
	"aquila/internal/tables"
	"aquila/internal/verify"
)

const (
	// churnEntries is the installed size of the churned ECMP table.
	churnEntries = 1024
	// churnTable is the table every delta rewrites.
	churnTable = "GatewayIngress.ecmp_nhop_tbl"
	// readEvery makes every 8th request of a client a GET.
	readEvery = 8
	// compareEvery picks the delta responses byte-compared against a
	// fresh verification after the timed window.
	compareEvery = 64
)

// churnClient is one closed-loop client: its own session, its own
// keep-alive connection, and its own seeded delta stream.
type churnClient struct {
	id   string
	http *http.Client
	rng  *rand.Rand
	// deltas holds the delta texts the session accepted, in order.
	deltas []string
	// saved maps a delta count to the response body returned then.
	saved map[int][]byte
	// writeNS and writes sum the delta round trips (serve.overhead_ms).
	writeNS int64
	writes  int
}

// serveChurn is the warm-path workload: an in-process aquila-serve daemon
// on a loopback server, two sessions each driven by one client.
type serveChurn struct {
	seed     int64
	tmp      string
	exp      Expected
	bm       *progs.Benchmark
	prog     *p4.Program
	specSrc  string
	spec     *lpi.Spec
	base     *tables.Snapshot
	baseText string

	dir     string // journal directory
	srv     *serve.Server
	ts      *httptest.Server
	reg     *obs.Registry
	clients []*churnClient
}

// holdingSpec returns the invalid-header-access spec with the items the
// pinned dcgw-cold verdict violates dropped, so every session holds.
func holdingSpec(full string, violated []Violation) (string, error) {
	drop := map[int]bool{}
	for _, v := range violated {
		i := strings.LastIndexByte(v.Label, '#')
		n, err := strconv.Atoi(v.Label[i+1:])
		if i < 0 || err != nil {
			return "", fmt.Errorf("pinned label %q has no item index", v.Label)
		}
		drop[n] = true
	}
	var out []string
	item := 0
	for _, ln := range strings.Split(full, "\n") {
		if strings.Contains(ln, "applied(") {
			item++
			if drop[item-1] {
				continue
			}
		}
		out = append(out, ln)
	}
	return strings.Join(out, "\n"), nil
}

// setupServe builds the inputs from the seed, starts the daemon and
// creates one session per client.
func setupServe(seed int64, exp Expected, tmp string) (instance, error) {
	s := &serveChurn{seed: seed, tmp: tmp, exp: exp, bm: progs.DCGatewayBench()}
	var err error
	if s.prog, err = s.bm.Parse(); err != nil {
		return nil, err
	}
	if s.specSrc, err = holdingSpec(progs.InvalidHeaderAccessSpec(s.prog, s.bm.Calls), exp[DCGWCold].Violated); err != nil {
		return nil, err
	}
	if s.spec, err = lpi.Parse(s.specSrc); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	s.base = tables.NewSnapshot()
	for i := 0; i < churnEntries; i++ {
		s.base.Add(churnTable, &tables.Entry{Keys: []tables.KeyMatch{tables.Exact(uint64(i))},
			Action: "set_nhop", Args: []uint64{uint64(1 + rng.Intn(8))}, Priority: -1})
	}
	s.baseText = tables.Format(s.base)
	if err := s.start(); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *serveChurn) start() error {
	var err error
	if s.dir, err = os.MkdirTemp(s.tmp, "ledger-journal-"); err != nil {
		return err
	}
	s.reg = obs.NewRegistry()
	s.srv, err = serve.New(serve.Config{Prog: s.prog, Spec: s.spec, ProgramRef: "ledger:serve-churn",
		JournalDir: s.dir, Obs: &obs.Obs{Metrics: s.reg}})
	if err != nil {
		return err
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	for c := 0; c < 2; c++ {
		cl := &churnClient{
			id:    fmt.Sprintf("client%d", c),
			http:  &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
			rng:   rand.New(rand.NewSource(s.seed*1000 + int64(c) + 1)),
			saved: map[int][]byte{},
		}
		s.clients = append(s.clients, cl)
		body, err := json.Marshal(map[string]string{"id": cl.id, "entries": s.baseText})
		if err != nil {
			return err
		}
		resp, data, err := cl.do("POST", s.ts.URL+"/sessions", body)
		if err != nil {
			return err
		}
		if resp.StatusCode != http.StatusCreated || resp.Header.Get("X-Aquila-Holds") != "true" {
			return fmt.Errorf("creating session %s: status %d, holds %q: %s",
				cl.id, resp.StatusCode, resp.Header.Get("X-Aquila-Holds"), data)
		}
	}
	return nil
}

// do sends one request and reads the whole body, so the keep-alive
// connection is reused.
func (cl *churnClient) do(method, url string, body []byte) (*http.Response, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	resp, err := cl.http.Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp, data, err
}

func dirBytes(dir string) (int64, error) {
	var n int64
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	for _, e := range entries {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return n, nil
}

func (s *serveChurn) clientCount() int { return len(s.clients) }

// op sends client c's request i: every readEvery-th is a GET of the
// session, every other one replaces one seeded entry of the ECMP table
// with a seeded action. The session lives for the whole run, so its warm
// state grows with every delta it absorbs, as a daemon's would.
func (s *serveChurn) op(c, i int, tr *tracer) outcome {
	cl := s.clients[c]
	url := s.ts.URL + "/sessions/" + cl.id
	if i%readEvery == readEvery-1 {
		sp := tr.begin("serve.read", opID(c, i), 0, c+1)
		resp, data, err := cl.do("GET", url, nil)
		tr.end(sp)
		if err != nil {
			return outcome{kind: opRead, failed: true, err: err}
		}
		var info struct {
			Deltas int  `json:"deltas"`
			Holds  bool `json:"holds"`
		}
		if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &info) != nil {
			return outcome{kind: opRead, failed: true, err: fmt.Errorf("GET %s: status %d: %s", cl.id, resp.StatusCode, data)}
		}
		if info.Deltas != len(cl.deltas) || !info.Holds {
			return outcome{kind: opRead, failed: true, wrong: true, err: fmt.Errorf(
				"GET %s: %d deltas holds=%v, client sent %d and every state holds", cl.id, info.Deltas, info.Holds, len(cl.deltas))}
		}
		return outcome{kind: opRead}
	}
	idx := cl.rng.Intn(churnEntries)
	action := "a_drop"
	if a := cl.rng.Intn(9); a > 0 {
		action = fmt.Sprintf("set_nhop(%d)", a)
	}
	text := fmt.Sprintf("replace %s %d %d -> %s\n", churnTable, idx, idx, action)
	sp := tr.begin("serve.delta", opID(c, i), 0, c+1)
	t0 := time.Now()
	resp, data, err := cl.do("POST", url+"/deltas", []byte(text))
	cl.writeNS += time.Since(t0).Nanoseconds()
	cl.writes++
	tr.end(sp)
	if err != nil {
		return outcome{failed: true, err: err}
	}
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Aquila-Budget-Exhausted") != "false" {
		return outcome{failed: true, err: fmt.Errorf("delta %q: status %d: %s", text, resp.StatusCode, data)}
	}
	cl.deltas = append(cl.deltas, text)
	if resp.Header.Get("X-Aquila-Holds") != "true" {
		return outcome{failed: true, wrong: true, err: fmt.Errorf("delta %q: daemon reports a violation", text)}
	}
	if n := len(cl.deltas); (n-1)%compareEvery == 0 {
		cl.saved[n] = data
	}
	return outcome{}
}

// opID keeps the two clients' traced requests apart from the replayed
// operations, which use small ids.
func opID(c, i int) int { return 1_000_000*(c+1) + i }

// finish byte-compares every saved response against a fresh verify.Run
// on the session's snapshot at that point, rebuilt from the base snapshot
// and the deltas the session had accepted.
func (s *serveChurn) finish() []string {
	var wrong []string
	for _, cl := range s.clients {
		snap := s.base.Clone()
		for n, text := range cl.deltas {
			d, err := tables.ParseDelta(text)
			if err == nil {
				err = d.Apply(snap)
			}
			if err != nil {
				wrong = append(wrong, fmt.Sprintf("%s delta %d: %v", cl.id, n+1, err))
				break
			}
			body, ok := cl.saved[n+1]
			if !ok {
				continue
			}
			fresh, err := verify.Run(s.prog, snap.Clone(), s.spec, verify.Options{FindAll: true, Parallel: 2})
			var want []byte
			if err == nil {
				want, err = fresh.CanonicalJSON()
			}
			if err != nil {
				wrong = append(wrong, fmt.Sprintf("%s delta %d: fresh verification: %v", cl.id, n+1, err))
			} else if !bytes.Equal(body, want) {
				wrong = append(wrong, fmt.Sprintf("%s delta %d: response differs from a fresh verification", cl.id, n+1))
			}
		}
	}
	return wrong
}

// traced reads the daemon's instruments for the timed phase and shuts it
// down, then replays the first k requests of both clients on a fresh
// daemon with a span around each round trip, replays client 0's deltas
// through a bare verify.Session one module call at a time, and traces the
// session program's fresh verification layer by layer.
func (s *serveChurn) traced(k int, tr *tracer) (*tracedOut, error) {
	out := &tracedOut{values: map[string]Value{}}
	var writes int
	var writeNS int64
	for _, cl := range s.clients {
		writes += cl.writes
		writeNS += cl.writeNS
	}
	wait := s.reg.Histogram(obs.HistServeQueueWaitUS)
	apply := s.reg.Histogram(obs.HistServeApplyWallUS)
	if n := apply.Count(); n > 0 && writes > 0 {
		out.values["serve.queue_wait_us_mean"] = Value{Value: float64(wait.Sum()) / float64(wait.Count()), N: int(wait.Count())}
		applyUS := float64(apply.Sum()) / float64(n)
		out.values["serve.apply_wall_us_mean"] = Value{Value: applyUS, N: int(n)}
		out.values["serve.overhead_ms"] = Value{Value: float64(writeNS)/float64(writes)/1e6 - applyUS/1e3, N: writes}
	}
	// The timed phase's sessions hold most of the heap; drop them so they
	// do not tax the traced calls with their GC work.
	s.close()
	runtime.GC()

	// The first k requests of both clients run three times, each time on a
	// fresh daemon: once to bring the process back from the timed phase's
	// heap (discarded), once without spans and once with them.
	// trace.overhead_frac compares the last two, because the timed phase's
	// grown sessions are no baseline for a fresh daemon's first requests.
	var fresh *serveChurn
	var journal int64
	for pass, t := range []*tracer{nil, nil, tr} {
		if fresh != nil {
			fresh.close()
		}
		inst, err := setupServe(s.seed, s.exp, s.tmp)
		if err != nil {
			return nil, err
		}
		fresh = inst.(*serveChurn)
		journal0, err := dirBytes(fresh.dir)
		if err != nil {
			fresh.close()
			return nil, err
		}
		samples, _ := drive(fresh, t, 0, k)
		journal1, err := dirBytes(fresh.dir)
		if err != nil {
			fresh.close()
			return nil, err
		}
		journal = journal1 - journal0
		for _, sm := range samples {
			switch {
			case sm.failed:
				out.wrong = append(out.wrong, fmt.Sprintf("replayed request: %v", sm.err))
			case sm.kind == opWrite && pass == 1:
				out.untraced = append(out.untraced, sm.dur)
			case sm.kind == opWrite && pass == 2:
				out.latency = append(out.latency, sm.dur)
			}
		}
	}
	defer fresh.close()
	deltas := fresh.clients[0].deltas
	out.wrong = append(out.wrong, fresh.finish()...)
	if n := len(out.latency); n > 0 {
		out.values["serve.journal_bytes_per_delta"] = Value{Value: float64(journal) / float64(n), N: n}
	}

	sess, err := verify.NewSession(s.prog, s.base, s.spec, verify.Options{Parallel: 1})
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	snap := s.base.Clone()
	var reuse, recheck int64
	for op, text := range deltas {
		sp := tr.begin("tables.delta_parse", op, 0, 0)
		d, err := tables.ParseDelta(text)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = tr.begin("tables.snapshot_clone", op, 0, 0)
		next := snap.Clone()
		tr.end(sp)
		sp = tr.begin("tables.delta_apply", op, 0, 0)
		err = d.Apply(next)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		snap = next
		sp = tr.begin("verify.session_apply", op, 0, 0)
		rep, err := sess.Apply(d)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		if !rep.Holds {
			out.wrong = append(out.wrong, fmt.Sprintf("session replay of %q reports a violation", text))
		}
		reuse += rep.Stats.DeltaReuse
		recheck += rep.Stats.DeltaRecheck
	}
	if reuse+recheck > 0 {
		out.values["verify.delta_reuse_frac"] = Value{Value: float64(reuse) / float64(reuse+recheck), N: len(deltas)}
	}

	prog := &cold{name: s.bm.Name, source: s.bm.Source, specSrc: s.specSrc, snapText: s.baseText,
		opts: verify.Options{FindAll: true, Parallel: 1}, expect: s.exp[ServeChurn].Violated}
	layers, err := prog.traceOps(tr, len(deltas), 3, false)
	if err != nil {
		return nil, err
	}
	for name, v := range layers.values {
		out.values[name] = v
	}
	out.errs = layers.errs
	out.wrong = append(out.wrong, layers.wrong...)
	return out, nil
}

// close shuts the daemon down and removes its journals; calling it again
// is a no-op.
func (s *serveChurn) close() {
	if s.ts != nil {
		s.ts.Close()
		s.ts = nil
	}
	if s.srv != nil {
		s.srv.Close()
		s.srv = nil
	}
	for _, cl := range s.clients {
		cl.http.CloseIdleConnections()
	}
	if s.dir != "" {
		os.RemoveAll(s.dir)
		s.dir = ""
	}
}
