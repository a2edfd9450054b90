// Command perfbench measures gopgas's structures end to end and layer
// by layer on 8 simulated locales at latency scale 0, driven by a
// closed loop of at most nproc client goroutines. See README.md.
//
//	perfbench --workload queue-stack-ebr --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Any failed output check makes the exit code 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

const (
	// maxClients caps the client goroutines (also capped by nproc) so
	// that the op mix per client, and so the figures, do not depend on
	// the host's core count beyond 2.
	maxClients = 2
	// setups is how many times a run boots and fills the system; setup_s
	// is their median and the last one is measured.
	setups = 9
	// reclaimEvery is the number of a client's ops between its timed
	// TryReclaim calls.
	reclaimEvery = 256
	warmup       = time.Second
	window       = time.Second
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 20, "measured seconds (after a 1 s warm-up)")
	trace := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (one of %s), --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	res := measure(w, *seed, *seconds, *trace == 1)
	fmt.Printf("workload %s seed %d: %d clients, %d ops attempted, %d failed, correct=%v\n",
		w.name, *seed, res.clients, res.attempted, res.failed, res.correct)
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-28s %14.4f %s\n", n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	out, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.correct, res.attempted, res.failed, res.metrics})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct || res.failed > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one booted system with its structures and clients.
type env struct {
	seed    uint64
	sys     *pgas.System
	em      epoch.EpochManager
	clients []*client
	b       bench
	errs    atomic.Int64 // output-check failures so far (clients report concurrently)
}

// fail reports one failed output check (the first few on stderr) and
// returns 1, the number of ops it fails.
func (e *env) fail(err error) int64 {
	if e.errs.Add(1) <= 10 {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", err)
	}
	return 1
}

// timer accumulates timed calls of one kind inside the traced window.
type timer struct {
	n, ns int64
}

func (t *timer) record(cl *client, t0, t1 int64) {
	if cl.r.inTrace(t0) {
		t.n++
		t.ns += t1 - t0
	}
}

func (t timer) meanUS() float64 {
	if t.n == 0 {
		return 0
	}
	return float64(t.ns) / float64(t.n) / 1e3
}

// clock holds one run's phase boundaries, in nanoseconds since base:
// warm-up until start, untraced windows until split, traced windows
// (trace mode only) until end.
type clock struct {
	base              time.Time
	start, split, end int64
	traced            bool
}

func (r *clock) inTrace(t0 int64) bool { return r.traced && t0 >= r.split && t0 < r.end }

// client is one load goroutine: a Ctx and a registered token per
// simulated locale, its own op stream, and its own measurements.
type client struct {
	id  int
	ctx []*pgas.Ctx
	tok []*epoch.Token
	ops *stream
	r   *clock
	e   *env

	win               []hist // completion latencies by completion window
	kinds             [numKinds]timer
	reclaim, flush    timer
	steals, stealHits int64 // TryDequeueAny calls in the traced window, and hits
	attempted, failed int64
	fifo              *fifo       // queue workloads: this consumer's order check
	pending           [][][]int64 // map-write-agg: issue times of buffered ops by [locale][dst]
	sinceFlush        int
}

func (cl *client) now() int64 { return int64(time.Since(cl.r.base)) }

// callDone ends the timed call of kind k begun at t0 and returns the
// time.
func (cl *client) callDone(k opKind, t0 int64) int64 {
	t1 := cl.now()
	cl.kinds[k].record(cl, t0, t1)
	return t1
}

// completed ends a synchronous op: the call's return is its completion.
func (cl *client) completed(k opKind, t0 int64) {
	cl.complete(t0, cl.callDone(k, t0))
}

// complete records one op issued at t0 and completed at t1 in the
// window t1 falls in.
func (cl *client) complete(t0, t1 int64) {
	if t1 < cl.r.start {
		return
	}
	if w := int((t1 - cl.r.start) / int64(window)); w < len(cl.win) {
		cl.win[w].add(t1 - t0)
	}
}

// settle completes every op buffered in ctx[l] toward dst at t1.
func (cl *client) settle(l, dst int, t1 int64) {
	for _, t0 := range cl.pending[l][dst] {
		cl.complete(t0, t1)
	}
	cl.pending[l][dst] = cl.pending[l][dst][:0]
}

func (cl *client) countSteal(t0 int64, hit bool) {
	if cl.r.inTrace(t0) {
		cl.steals++
		if hit {
			cl.stealHits++
		}
	}
}

func (cl *client) check(err error) {
	if err != nil {
		cl.failed += cl.e.fail(err)
	}
}

// loop runs the closed loop until the end of the run: draw, issue,
// wait for completion, and every reclaimEvery ops one timed TryReclaim
// on the op's locale, kept out of the op latencies.
func (cl *client) loop() {
	for n := 1; ; n++ {
		o := cl.ops.next()
		t0 := cl.now()
		if t0 >= cl.r.end {
			break
		}
		cl.attempted++
		cl.e.b.exec(cl, o, t0)
		if n%reclaimEvery == 0 {
			t0 := cl.now()
			cl.tok[o.loc].TryReclaim(cl.ctx[o.loc])
			cl.reclaim.record(cl, t0, cl.now())
		}
	}
	cl.e.b.finish(cl)
}

// config is the System every run of w boots: 8 locales, no injected
// latency, the workload's backend and aggregation policy.
func (w workload) config(seed uint64) pgas.Config {
	return pgas.Config{Locales: locales, Backend: w.backend, Latency: comm.Zero(), Agg: w.agg, Seed: seed + 1}
}

// newEnv boots w's system, registers the clients (z is the key
// distribution, nil for the queue workloads) and sets the structures up.
func newEnv(w workload, seed uint64, nClients int, r *clock, z *zipf) *env {
	sys := pgas.NewSystem(w.config(seed))
	e := &env{seed: seed, sys: sys, em: epoch.NewEpochManager(sys.Ctx(0)), b: w.newBench()}
	writers := 0
	if z != nil {
		writers = nClients * locales
	}
	perm := newKeyPerm(seed)
	for i := 0; i < nClients; i++ {
		cl := &client{id: i, r: r, e: e, ops: newStream(seed, i, w.mix, z, perm, writers, locales)}
		for l := 0; l < locales; l++ {
			c := sys.Ctx(l)
			cl.ctx = append(cl.ctx, c)
			cl.tok = append(cl.tok, e.em.Register(c))
		}
		e.clients = append(e.clients, cl)
	}
	e.b.setup(e)
	return e
}

// snapshot is the state of every counter the metrics difference.
type snapshot struct {
	comm   comm.Snapshot
	matrix [][]int64
	heap   gas.Stats
	mem    runtime.MemStats
	epoch  epoch.Stats
}

// take reads the counters; the epoch statistics cost on-statements, so
// they are read outside the comm window (before it opens, after it
// closes).
func take(e *env, opening bool) *snapshot {
	s := &snapshot{}
	c := e.sys.Ctx(0)
	if opening {
		s.epoch = e.em.Stats(c)
	}
	runtime.ReadMemStats(&s.mem)
	s.heap = e.sys.HeapStats()
	s.matrix = e.sys.Matrix().Snapshot()
	s.comm = e.sys.Counters().Snapshot()
	if !opening {
		s.epoch = e.em.Stats(c)
	}
	return s
}

type result struct {
	clients           int
	correct           bool
	attempted, failed int64
	metrics           map[string]metric
}

func sleepUntil(r *clock, t int64) {
	if d := time.Duration(t - int64(time.Since(r.base))); d > 0 {
		time.Sleep(d)
	}
}

func measure(w workload, seed uint64, seconds int, traced bool) result {
	nClients := min(runtime.NumCPU(), maxClients)
	var z *zipf
	if w.keys {
		z = newZipf(numKeys, zipfTheta)
	}
	r := &clock{traced: traced}

	// Set up several times and keep the last system: setup_s is the
	// median, so one slow boot does not move it.
	var e *env
	setupS := make([]float64, setups)
	for i := range setupS {
		if e != nil {
			e.sys.Shutdown()
			e = nil // let the collection below free it
		}
		runtime.GC()
		t := time.Now()
		e = newEnv(w, seed, nClients, r, z)
		setupS[i] = time.Since(t).Seconds()
	}

	r.base = time.Now()
	r.start = int64(warmup)
	r.end = r.start + int64(seconds)*int64(window)
	r.split = r.start
	if traced {
		r.split = r.start + int64(seconds/2)*int64(window)
	}
	for _, cl := range e.clients {
		cl.win = make([]hist, seconds)
	}
	var wg sync.WaitGroup
	for _, cl := range e.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.loop()
		}()
	}
	sleepUntil(r, r.split)
	a := take(e, true)
	sleepUntil(r, r.end)
	b := take(e, false)
	wg.Wait()

	res := result{clients: nClients}
	for _, cl := range e.clients {
		res.attempted += cl.attempted
		res.failed += cl.failed
	}
	res.failed += e.b.check(e)
	res.correct = settle(e)
	e.sys.Shutdown()

	// Windows [0, first) were untraced, [first, seconds) are the
	// measured (trace mode: traced) windows.
	first := int((r.split - r.start) / int64(window))
	wins := mergeWindows(e.clients, seconds)
	if !traced {
		res.metrics = endToEnd(wins, a, b, setupS)
		return res
	}
	res.metrics = perLayer(e, wins[first:], a, b, float64(r.end-r.split))
	overhead := 0.0
	if first > 0 {
		overhead = 1 - medianThroughput(wins[first:])/medianThroughput(wins[:first])
	}
	res.metrics["host.trace_overhead_ratio"] = metric{overhead, "ratio"}
	for name, v := range probe(w.config(seed), nClients) {
		res.metrics[name] = metric{v, "ns"}
	}
	return res
}

// settle brings the system to rest and checks the invariants every
// workload must keep: no use-after-free on any heap, every deferred
// object reclaimed after Clear, no op lost, every aggregated op either
// shipped or absorbed.
func settle(e *env) bool {
	c := e.sys.Ctx(0)
	c.Flush()
	e.em.Clear(c)
	ok := true
	bad := func(format string, args ...any) {
		ok = false
		e.fail(fmt.Errorf(format, args...))
	}
	if h := e.sys.HeapStats(); h.UAFLoads+h.UAFStores+h.UAFFrees != 0 {
		bad("use-after-free on the heaps: %d loads, %d stores, %d frees", h.UAFLoads, h.UAFStores, h.UAFFrees)
	}
	if st := e.em.Stats(c); st.Deferred != st.Reclaimed {
		bad("after Clear, %d objects deferred but %d reclaimed", st.Deferred, st.Reclaimed)
	}
	s := e.sys.Counters().Snapshot()
	if s.OpsLost != 0 {
		bad("%d ops lost", s.OpsLost)
	}
	if s.AggOpsEnq != s.AggOps+s.AggCombined {
		bad("aggregation books: %d enqueued != %d shipped + %d absorbed", s.AggOpsEnq, s.AggOps, s.AggCombined)
	}
	return ok
}

// mergeWindows merges the clients' histograms window by window.
func mergeWindows(clients []*client, n int) []hist {
	wins := make([]hist, n)
	for i := range wins {
		for _, cl := range clients {
			wins[i].merge(&cl.win[i])
		}
	}
	return wins
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func perWindow(wins []hist, f func(h *hist) float64) float64 {
	xs := make([]float64, len(wins))
	for i := range wins {
		xs[i] = f(&wins[i])
	}
	return median(xs)
}

func medianThroughput(wins []hist) float64 {
	return perWindow(wins, func(h *hist) float64 { return float64(h.n) / window.Seconds() })
}

func completions(wins []hist) int64 {
	var n int64
	for i := range wins {
		n += wins[i].n
	}
	return n
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd computes the user-visible metrics: medians over the
// one-second windows of throughput and latency percentiles, and
// per-op costs over the whole measured span.
func endToEnd(wins []hist, a, b *snapshot, setupS []float64) map[string]metric {
	ops := float64(completions(wins))
	d := b.comm.Sub(a.comm)
	return map[string]metric{
		"throughput_ops_s":       {medianThroughput(wins), "1/s"},
		"latency_p50_us":         {perWindow(wins, func(h *hist) float64 { return h.quantile(0.50) }) / 1e3, "us"},
		"latency_p99_us":         {perWindow(wins, func(h *hist) float64 { return h.quantile(0.99) }) / 1e3, "us"},
		"modelled_net_us_per_op": {ratio(modelledNetNS(d, comm.DefaultProfile()), ops) / 1e3, "us"},
		"alloc_bytes_per_op":     {ratio(float64(b.mem.TotalAlloc-a.mem.TotalAlloc), ops), "B"},
		"setup_s":                {median(setupS), "s"},
	}
}

// modelledNetNS prices a counter delta with a latency profile: each
// event kind's count times the delay the dispatch layer injects for
// it. Local AMOs and local DCAS cost LocalAtomicNS.
func modelledNetNS(d comm.Snapshot, p comm.LatencyProfile) float64 {
	am := p.AMRoundTripNS + p.AMHandlerNS
	return float64((d.Puts+d.Gets)*p.PutGetNS +
		d.NICAMOs*p.NICAtomicNS +
		(d.AMAMOs+d.DCASRemote)*am +
		(d.LocalAMOs+d.DCASLocal)*p.LocalAtomicNS +
		d.OnStmts*(p.AMRoundTripNS+p.OnStmtNS) +
		d.BulkXfers*p.BulkStartupNS + d.BulkBytes*p.BulkPerByteNS)
}

// perLayer computes the per-layer metrics over the traced windows.
func perLayer(e *env, wins []hist, a, b *snapshot, tracedNS float64) map[string]metric {
	ops := float64(completions(wins))
	d := b.comm.Sub(a.comm)
	perOp := func(n int64) float64 { return ratio(float64(n), ops) }
	m := map[string]metric{}
	var kinds [numKinds]timer
	var reclaim, flush timer
	var steals, hits int64
	for _, cl := range e.clients {
		for k := range kinds {
			kinds[k].n += cl.kinds[k].n
			kinds[k].ns += cl.kinds[k].ns
		}
		reclaim.n += cl.reclaim.n
		reclaim.ns += cl.reclaim.ns
		flush.n += cl.flush.n
		flush.ns += cl.flush.ns
		steals += cl.steals
		hits += cl.stealHits
	}
	for k, name := range kindNames {
		m[name] = metric{kinds[k].meanUS(), "us"}
	}
	m["queue.steal_hit_ratio"] = metric{ratio(float64(hits), float64(steals)), "ratio"}
	m["epoch.try_reclaim_us"] = metric{reclaim.meanUS(), "us"}
	m["epoch.reclaim_time_share"] = metric{ratio(float64(reclaim.ns), tracedNS*float64(len(e.clients))), "ratio"}
	adv := b.epoch.Advances - a.epoch.Advances
	fail := b.epoch.AdvanceFail - a.epoch.AdvanceFail
	m["epoch.advance_fail_ratio"] = metric{ratio(float64(fail), float64(adv+fail)), "ratio"}
	m["pgas.flush_us"] = metric{flush.meanUS(), "us"}

	m["comm.remote_events_per_op"] = metric{perOp(d.Remote()), "count"}
	m["comm.am_per_op"] = metric{perOp(d.AMAMOs + d.DCASRemote), "count"}
	m["comm.nic_amos_per_op"] = metric{perOp(d.NICAMOs), "count"}
	m["comm.gets_per_op"] = metric{perOp(d.Gets), "count"}
	m["comm.on_stmts_per_op"] = metric{perOp(d.OnStmts), "count"}
	m["comm.bulk_bytes_per_op"] = metric{perOp(d.BulkBytes), "B"}
	m["comm.agg_ops_per_flush"] = metric{ratio(float64(d.AggOps), float64(d.AggFlushes)), "count"}
	m["comm.agg_absorbed_ratio"] = metric{ratio(float64(d.AggCombined), float64(d.AggOpsEnq)), "ratio"}
	m["comm.cas_retry_ratio"] = metric{ratio(float64(d.CASRetries), float64(d.CASAttempts)), "ratio"}
	var total, busiest int64
	for dst := range b.matrix {
		var col int64
		for src := range b.matrix {
			col += b.matrix[src][dst] - a.matrix[src][dst]
		}
		total += col
		busiest = max(busiest, col)
	}
	m["comm.max_inbound_share"] = metric{ratio(float64(busiest), float64(total)), "ratio"}

	m["gas.allocs_per_op"] = metric{perOp(b.heap.Allocs - a.heap.Allocs), "count"}
	m["host.gc_per_kop"] = metric{ratio(float64(b.mem.NumGC-a.mem.NumGC)*1000, ops), "count"}
	return m
}
