package pgas

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
)

func TestWord64Semantics(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 3, backend)
			s.Run(func(c *Ctx) {
				w := NewWord64(c, 2, 5)
				if got := w.Read(c); got != 5 {
					t.Fatalf("Read = %d", got)
				}
				w.Write(c, 9)
				if got := w.Read(c); got != 9 {
					t.Fatalf("Read after Write = %d", got)
				}
				if old := w.Exchange(c, 11); old != 9 {
					t.Fatalf("Exchange returned %d", old)
				}
				if !w.CompareAndSwap(c, 11, 12) {
					t.Fatal("CAS with matching value failed")
				}
				if w.CompareAndSwap(c, 11, 13) {
					t.Fatal("CAS with stale value succeeded")
				}
				if got := w.Add(c, 8); got != 20 {
					t.Fatalf("Add = %d", got)
				}
			})
		})
	}
}

func TestWord64TestAndSet(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		f := NewWord64(c, 1, 0)
		if f.TestAndSet(c) {
			t.Fatal("first TAS must win")
		}
		if !f.TestAndSet(c) {
			t.Fatal("second TAS must lose")
		}
		f.Clear(c)
		if f.TestAndSet(c) {
			t.Fatal("TAS after Clear must win")
		}
	})
}

func TestWord64RoutingCounters(t *testing.T) {
	// none backend: local op → localAMO, remote op → amAMO.
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		local := NewWord64(c, 0, 0)
		remote := NewWord64(c, 1, 0)
		before := s.Counters().Snapshot()
		local.Read(c)
		d := s.Counters().Snapshot().Sub(before)
		if d.LocalAMOs != 1 || d.AMAMOs != 0 || d.NICAMOs != 0 {
			t.Fatalf("local read routed wrong: %v", d)
		}
		before = s.Counters().Snapshot()
		remote.Read(c)
		d = s.Counters().Snapshot().Sub(before)
		if d.AMAMOs != 1 || d.LocalAMOs != 0 || d.NICAMOs != 0 {
			t.Fatalf("remote read routed wrong: %v", d)
		}
	})

	// ugni backend: every op — even locale-local — is a NIC atomic.
	s2 := newTestSystem(t, 2, comm.BackendUGNI)
	s2.Run(func(c *Ctx) {
		local := NewWord64(c, 0, 0)
		remote := NewWord64(c, 1, 0)
		before := s2.Counters().Snapshot()
		local.Write(c, 1)
		remote.Write(c, 1)
		d := s2.Counters().Snapshot().Sub(before)
		if d.NICAMOs != 2 || d.AMAMOs != 0 || d.LocalAMOs != 0 {
			t.Fatalf("ugni routing wrong: %v", d)
		}
	})
}

func TestWord64ConcurrentAdds(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 4, backend)
			w := NewWord64(s.Ctx(0), 3, 0)
			const tasksPerLocale = 4
			const addsPerTask = 250
			var wg sync.WaitGroup
			for l := 0; l < 4; l++ {
				for k := 0; k < tasksPerLocale; k++ {
					wg.Add(1)
					go func(l int) {
						defer wg.Done()
						c := s.Ctx(l)
						for i := 0; i < addsPerTask; i++ {
							w.Add(c, 1)
						}
					}(l)
				}
			}
			wg.Wait()
			if got := w.Read(s.Ctx(0)); got != 4*tasksPerLocale*addsPerTask {
				t.Fatalf("lost updates: %d", got)
			}
		})
	}
}

func TestWord128Semantics(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		w := NewWord128(c, 1, 10, 20)
		lo, hi := w.Read(c)
		if lo != 10 || hi != 20 {
			t.Fatalf("Read = (%d,%d)", lo, hi)
		}
		w.Write(c, 1, 2)
		if lo, hi = w.Read(c); lo != 1 || hi != 2 {
			t.Fatalf("after Write = (%d,%d)", lo, hi)
		}
		oldLo, oldHi := w.Exchange(c, 3, 4)
		if oldLo != 1 || oldHi != 2 {
			t.Fatalf("Exchange returned (%d,%d)", oldLo, oldHi)
		}
		if !w.DCAS(c, 3, 4, 5, 6) {
			t.Fatal("matching DCAS failed")
		}
		if w.DCAS(c, 3, 4, 7, 8) {
			t.Fatal("stale DCAS succeeded")
		}
		if lo, hi = w.Read(c); lo != 5 || hi != 6 {
			t.Fatalf("after DCAS = (%d,%d)", lo, hi)
		}
	})
}

func TestWord128HalfWordMatters(t *testing.T) {
	// DCAS must compare BOTH halves: same lo, different hi → fail.
	s := newTestSystem(t, 1, comm.BackendNone)
	s.Run(func(c *Ctx) {
		w := NewWord128(c, 0, 42, 7)
		if w.DCAS(c, 42, 8, 1, 1) {
			t.Fatal("DCAS ignored the high word")
		}
		if w.DCAS(c, 41, 7, 1, 1) {
			t.Fatal("DCAS ignored the low word")
		}
	})
}

func TestWord128LoOps(t *testing.T) {
	s := newTestSystem(t, 2, comm.BackendNone)
	s.Run(func(c *Ctx) {
		w := NewWord128(c, 1, 100, 55)
		if got := w.ReadLo64(c); got != 100 {
			t.Fatalf("ReadLo64 = %d", got)
		}
		w.WriteLo64(c, 101)
		if lo, hi := w.Read(c); lo != 101 || hi != 55 {
			t.Fatalf("WriteLo64 disturbed the stamp: (%d,%d)", lo, hi)
		}
		if old := w.ExchangeLo64(c, 102); old != 101 {
			t.Fatalf("ExchangeLo64 = %d", old)
		}
		if !w.CASLo64(c, 102, 103) || w.CASLo64(c, 102, 104) {
			t.Fatal("CASLo64 semantics wrong")
		}
		if _, hi := w.Read(c); hi != 55 {
			t.Fatal("lo-ops must not bump the stamp")
		}
		w.WriteLoBumpHi(c, 200)
		if lo, hi := w.Read(c); lo != 200 || hi != 56 {
			t.Fatalf("WriteLoBumpHi = (%d,%d)", lo, hi)
		}
		oldLo, oldHi := w.ExchangeLoBumpHi(c, 300)
		if oldLo != 200 || oldHi != 56 {
			t.Fatalf("ExchangeLoBumpHi returned (%d,%d)", oldLo, oldHi)
		}
		if lo, hi := w.Read(c); lo != 300 || hi != 57 {
			t.Fatalf("after ExchangeLoBumpHi = (%d,%d)", lo, hi)
		}
	})
}

func TestWord128RemoteAlwaysAM(t *testing.T) {
	// Full-width ops are never NIC atomics, on either backend.
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 2, backend)
			s.Run(func(c *Ctx) {
				w := NewWord128(c, 1, 0, 0)
				before := s.Counters().Snapshot()
				w.DCAS(c, 0, 0, 1, 1)
				d := s.Counters().Snapshot().Sub(before)
				if d.DCASRemote != 1 || d.NICAMOs != 0 {
					t.Fatalf("remote DCAS routing: %v", d)
				}
				local := NewWord128(c, 0, 0, 0)
				before = s.Counters().Snapshot()
				local.DCAS(c, 0, 0, 1, 1)
				d = s.Counters().Snapshot().Sub(before)
				if d.DCASLocal != 1 || d.DCASRemote != 0 {
					t.Fatalf("local DCAS routing: %v", d)
				}
			})
		})
	}
}

// Hammer DCAS atomicity: concurrent increments via DCAS must not lose
// updates, and the two halves must always move together.
func TestWord128DCASAtomicityHammer(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	w := NewWord128(s.Ctx(0), 2, 0, 0)
	const tasks = 8
	const per = 300
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % 4)
			for i := 0; i < per; i++ {
				for {
					lo, hi := w.Read(c)
					if lo != hi {
						t.Errorf("halves diverged: (%d,%d)", lo, hi)
						return
					}
					if w.DCAS(c, lo, hi, lo+1, hi+1) {
						break
					}
				}
			}
		}(g)
	}
	wg.Wait()
	lo, hi := w.Read(s.Ctx(0))
	if lo != tasks*per || hi != tasks*per {
		t.Fatalf("final = (%d,%d), want (%d,%d)", lo, hi, tasks*per, tasks*per)
	}
}

// TestRemoteAtomicsZeroAlloc pins the allocation contract of the
// memory plane: a remote Word64 Read/Add/CompareAndSwap allocates
// nothing on either backend (a NIC atomic under ugni, an inline active
// message under none), and neither does a remote Word128 DCAS. The op
// closures must stay on the caller's stack.
func TestRemoteAtomicsZeroAlloc(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 2, backend)
			c := s.Ctx(0)
			w := NewWord64(c, 1, 0)
			d := NewWord128(c, 1, 0, 0)
			var hi uint64
			ops := []struct {
				name string
				fn   func()
			}{
				{"Word64.Read", func() { w.Read(c) }},
				{"Word64.Add", func() { w.Add(c, 1) }},
				{"Word64.CompareAndSwap", func() { w.CompareAndSwap(c, 0, 0) }},
				{"Word128.DCAS", func() {
					if d.DCAS(c, 0, hi, 0, hi+1) {
						hi++
					}
				}},
			}
			for _, op := range ops {
				if avg := testing.AllocsPerRun(200, op.fn); avg != 0 {
					t.Errorf("remote %s allocates %.2f/op under %s", op.name, avg, backend)
				}
			}
		})
	}
}
