package main

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

func TestZipfRankFrequencies(t *testing.T) {
	const draws = 2_000_000
	z := newZipf(numKeys, zipfTheta)
	r := rand.New(rand.NewPCG(1, 2))
	counts := make([]int, numKeys)
	for i := 0; i < draws; i++ {
		counts[z.rank(r.Float64())]++
	}
	// Each of the top ranks, relative to rank 0, must follow the
	// analytic ratio 1/(r+1)^theta.
	for rank := 1; rank < 10; rank++ {
		got := float64(counts[rank]) / float64(counts[0])
		want := math.Pow(float64(rank+1), -zipfTheta)
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("rank %d: frequency ratio %.4f, analytic %.4f", rank, got, want)
		}
	}
	// The mass of the top 1000 ranks must match the analytic CDF.
	var top int
	for _, c := range counts[:1000] {
		top += c
	}
	if got, want := float64(top)/draws, z.cdf[999]; math.Abs(got-want) > 0.005 {
		t.Errorf("top-1000 mass %.4f, analytic %.4f", got, want)
	}
}

// encode packs the bytes of an op.
func (o op) encode(dst []byte) []byte {
	return append(dst, byte(o.loc), byte(o.kind), byte(o.key), byte(o.key>>8))
}

func streamBytes(w workload, seed uint64, client, n int) []byte {
	z := newZipf(numKeys, zipfTheta)
	s := newStream(seed, client, w.mix, z, newKeyPerm(seed), 2*locales, locales)
	var out []byte
	for i := 0; i < n; i++ {
		out = s.next().encode(out)
	}
	return out
}

func TestStreamSeedDeterminism(t *testing.T) {
	for _, w := range workloads {
		a := streamBytes(w, 7, 1, 100_000)
		if b := streamBytes(w, 7, 1, 100_000); !bytes.Equal(a, b) {
			t.Errorf("%s: same seed gave different op streams", w.name)
		}
		if b := streamBytes(w, 8, 1, 100_000); bytes.Equal(a, b) {
			t.Errorf("%s: different seeds gave the same op stream", w.name)
		}
		if b := streamBytes(w, 7, 0, 100_000); bytes.Equal(a, b) {
			t.Errorf("%s: two clients drew the same op stream", w.name)
		}
	}
}

func TestStreamWritesStayWithTheirWriter(t *testing.T) {
	w, _ := findWorkload("map-write-agg")
	z := newZipf(numKeys, zipfTheta)
	const writers = 2 * locales
	s := newStream(3, 1, w.mix, z, newKeyPerm(3), writers, locales)
	for i := 0; i < 10_000; i++ {
		o := s.next()
		if isWrite(o.kind) && writerOf(o.key, writers) != 1*locales+o.loc {
			t.Fatalf("write of key %d issued by client 1 on locale %d, owned by writer %d", o.key, o.loc, writerOf(o.key, writers))
		}
	}
}

// modelledOf runs fn from locale 1 of a fresh 2-locale system and
// prices the communication it counted with the default profile.
func modelledOf(backend comm.Backend, fn func(home, c *pgas.Ctx)) float64 {
	sys := pgas.NewSystem(pgas.Config{Locales: 2, Backend: backend})
	defer sys.Shutdown()
	home, c := sys.Ctx(0), sys.Ctx(1)
	before := sys.Counters().Snapshot()
	fn(home, c)
	return modelledNetNS(sys.Counters().Snapshot().Sub(before), comm.DefaultProfile())
}

func TestModelledNetHandCounted(t *testing.T) {
	read := func(home, c *pgas.Ctx) {
		w := pgas.NewWord64(home, 0, 0)
		w.Read(c)
	}
	// none: one active-message AMO = AM round trip 2500 + handler 400.
	if got := modelledOf(comm.BackendNone, read); got != 2900 {
		t.Errorf("remote Word64.Read under none = %v ns, want 2900", got)
	}
	// ugni: one NIC atomic = 800.
	if got := modelledOf(comm.BackendUGNI, read); got != 800 {
		t.Errorf("remote Word64.Read under ugni = %v ns, want 800", got)
	}
	// One remote AllocOn is one on-statement: 2500 + 1500.
	alloc := func(_, c *pgas.Ctx) { c.AllocOn(0, &probeObj{}) }
	if got := modelledOf(comm.BackendNone, alloc); got != 4000 {
		t.Errorf("remote AllocOn = %v ns, want 4000", got)
	}
	// Two remote reads then one local read under none: 2 x 2900 + 0.
	twice := func(home, c *pgas.Ctx) {
		w := pgas.NewWord64(home, 0, 0)
		w.Read(c)
		w.Read(c)
		w.Read(home)
	}
	if got := modelledOf(comm.BackendNone, twice); got != 5800 {
		t.Errorf("two remote reads and one local = %v ns, want 5800", got)
	}
}

func TestLedgerDetectsCorruptHistory(t *testing.T) {
	l := newLedger(2)
	a, b, c := l.produce(0, 0), l.produce(0, 0), l.produce(1, 0)
	for _, v := range []uint64{a, b, c} {
		if err := l.consume(v); err != nil {
			t.Fatalf("clean consume of %#x: %v", v, err)
		}
	}
	if l.missing() != 0 {
		t.Fatalf("clean history reports %d missing", l.missing())
	}
	if err := l.consume(b); err == nil {
		t.Error("a value consumed twice went undetected")
	}
	if err := l.consume(packVal(0, 0, 99)); err == nil {
		t.Error("a value never produced went undetected")
	}
	if err := l.consume(packVal(5, 0, 1)); err == nil {
		t.Error("a value of an unknown producer went undetected")
	}
	l.produce(1, 0) // produced, never consumed
	if got := l.missing(); got != 1 {
		t.Errorf("one lost value reported as %d missing", got)
	}
}

func TestLedgerChunkBoundary(t *testing.T) {
	l := newLedger(1)
	var last uint64
	for i := 0; i < chunkBits+2; i++ {
		last = l.produce(0, 0)
	}
	if err := l.consume(last); err != nil {
		t.Fatalf("value past the first chunk: %v", err)
	}
	if got := l.missing(); got != chunkBits+1 {
		t.Errorf("missing = %d, want %d", got, chunkBits+1)
	}
}

func TestFifoDetectsReorderAndWrongSegment(t *testing.T) {
	f := newFifo(2, locales)
	if err := f.observe(packVal(0, 3, 1), 3); err != nil {
		t.Fatal(err)
	}
	if err := f.observe(packVal(0, 3, 5), 3); err != nil {
		t.Fatal(err)
	}
	if err := f.observe(packVal(1, 3, 2), 3); err != nil {
		t.Fatalf("another producer's order is independent: %v", err)
	}
	if err := f.observe(packVal(0, 3, 4), 3); err == nil {
		t.Error("a producer's values leaving out of order went undetected")
	}
	if err := f.observe(packVal(0, 2, 9), 3); err == nil {
		t.Error("a value leaving the wrong segment went undetected")
	}
}

func TestShadowDetectsCorruption(t *testing.T) {
	const writers = 2 * locales
	s := newShadow(writers)
	key := ownKey(1234, 3, writers) // writer 3 = client 0, locale 3
	v := s.write(key, false)
	if err := s.checkGet(key, v, true, true, true); err != nil {
		t.Fatalf("clean get: %v", err)
	}
	s.vals[key]++ // corrupt the shadow
	if err := s.checkGet(key, v, true, true, true); err == nil {
		t.Error("own get disagreeing with the shadow went undetected")
	}
	if err := s.checkGet(key, 0, false, true, true); err == nil {
		t.Error("own key missing from the map went undetected")
	}
	other := ownKey(99, 12, writers)
	if err := s.checkGet(other, v, true, false, true); err == nil {
		t.Error("a get returning another key's value went undetected")
	}
	if err := s.checkGet(key, mapVal(key, 3, 7), true, true, false); err == nil {
		t.Error("a get running ahead of the writer's sequence went undetected")
	}
	got := append([]uint64(nil), s.vals...)
	if s.diff(got) != 0 {
		t.Fatal("identical contents differ")
	}
	got[other] = 1
	got[key] = 0
	if n := s.diff(got); n != 2 {
		t.Errorf("two corrupted keys reported as %d", n)
	}
}

// settleEnv boots a small env for the settle checks.
func settleEnv(t *testing.T) *env {
	t.Helper()
	sys := pgas.NewSystem(pgas.Config{Locales: 4})
	t.Cleanup(sys.Shutdown)
	return &env{sys: sys, em: epoch.NewEpochManager(sys.Ctx(0))}
}

func TestSettleDetectsBrokenInvariants(t *testing.T) {
	if !settle(settleEnv(t)) {
		t.Fatal("a clean system failed settle")
	}
	cases := map[string]func(e *env){
		"use-after-free": func(e *env) {
			c := e.sys.Ctx(0)
			a := c.Alloc(&probeObj{})
			c.Free(a)
			c.Free(a)
		},
		"deferred not reclaimed": func(e *env) {
			// A nil deferral is counted but never reclaimed.
			c := e.sys.Ctx(0)
			e.em.Protect(c, func(tok *epoch.Token) { tok.DeferDelete(c, gas.AddrNil) })
		},
		"op lost": func(e *env) {
			if err := e.sys.Crash(2); err != nil {
				t.Fatal(err)
			}
			e.sys.Ctx(0).On(2, func(*pgas.Ctx) {})
		},
		"aggregated op never shipped": func(e *env) {
			e.sys.Ctx(1).Aggregator(0).Call(func(*pgas.Ctx) {})
		},
	}
	for name, corrupt := range cases {
		e := settleEnv(t)
		corrupt(e)
		if settle(e) {
			t.Errorf("%s went undetected", name)
		}
	}
}

// TestWorkloadsRunClean runs every workload for a second and demands
// zero failed ops and a clean settle.
func TestWorkloadsRunClean(t *testing.T) {
	if testing.Short() {
		t.Skip("runs each workload for about three seconds")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := measure(w, 5, 2, traced)
			if !res.correct || res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v failed=%d attempted=%d", w.name, traced, res.correct, res.failed, res.attempted)
			}
			if !traced && res.metrics["throughput_ops_s"].Value <= 0 {
				t.Errorf("%s: no throughput", w.name)
			}
		}
	}
}
