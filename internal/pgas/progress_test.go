package pgas

import (
	"sync"
	"testing"

	"gopgas/internal/comm"
)

// A single AM handler slot must still service arbitrarily many
// concurrent AM atomics without deadlock or lost updates — handlers
// are terminal by construction.
func TestSingleProgressWorker(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone, ProgressWorkers: 1})
	defer s.Shutdown()
	w := NewWord64(s.Ctx(0), 1, 0)
	const tasks = 16
	const per = 100
	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := s.Ctx(0)
			for i := 0; i < per; i++ {
				w.Add(c, 1)
			}
		}()
	}
	wg.Wait()
	if got := w.Read(s.Ctx(0)); got != tasks*per {
		t.Fatalf("lost updates with one AM handler slot: %d", got)
	}
}

// AM atomics from many locales to one hot word: totals must hold and
// the comm matrix must show the convergent traffic.
func TestHotWordConvergentTraffic(t *testing.T) {
	s := newTestSystem(t, 8, comm.BackendNone)
	w := NewWord64(s.Ctx(0), 7, 0)
	var wg sync.WaitGroup
	for l := 0; l < 8; l++ {
		wg.Add(1)
		go func(l int) {
			defer wg.Done()
			c := s.Ctx(l)
			for i := 0; i < 50; i++ {
				w.Add(c, 1)
			}
		}(l)
	}
	wg.Wait()
	// Read from the word's own locale so the verification itself adds
	// no cross-locale traffic.
	if got := w.Read(s.Ctx(7)); got != 400 {
		t.Fatalf("total = %d", got)
	}
	m := s.Matrix()
	for l := 0; l < 7; l++ {
		if got := m.Get(l, 7); got != 50 {
			t.Fatalf("matrix[%d][7] = %d, want 50", l, got)
		}
	}
	// Locale 7's own ops were processor atomics: invisible.
	if got := m.Get(7, 7); got != 0 {
		t.Fatalf("self traffic = %d", got)
	}
}

// Nested on-statements (the tryReclaim pattern: coforall inside an
// on-statement inside a coforall) must not deadlock even with a single
// AM handler slot, because on-statements run as tasks of their own and
// never hold a handler slot.
func TestNestedOnStatements(t *testing.T) {
	s := NewSystem(Config{Locales: 4, Backend: comm.BackendNone, ProgressWorkers: 1})
	defer s.Shutdown()
	s.Run(func(c *Ctx) {
		depth2 := 0
		c.On(1, func(c1 *Ctx) {
			c1.CoforallLocales(func(c2 *Ctx) {
				c2.On((c2.Here()+1)%4, func(c3 *Ctx) {})
			})
			depth2 = c1.Here()
		})
		if depth2 != 1 {
			t.Fatalf("nested on ran on %d", depth2)
		}
	})
}

// Word64 Add/CAS mixed storm across backends: linearizable counter.
func TestMixedAtomicStorm(t *testing.T) {
	for _, backend := range []comm.Backend{comm.BackendNone, comm.BackendUGNI} {
		t.Run(backend.String(), func(t *testing.T) {
			s := newTestSystem(t, 3, backend)
			w := NewWord64(s.Ctx(0), 1, 0)
			var wg sync.WaitGroup
			const tasks = 9
			const per = 200
			for g := 0; g < tasks; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := s.Ctx(g % 3)
					for i := 0; i < per; i++ {
						if g%3 == 0 {
							w.Add(c, 1)
						} else {
							for {
								old := w.Read(c)
								if w.CompareAndSwap(c, old, old+1) {
									break
								}
							}
						}
					}
				}(g)
			}
			wg.Wait()
			if got := w.Read(s.Ctx(0)); got != tasks*per {
				t.Fatalf("counter = %d, want %d", got, tasks*per)
			}
		})
	}
}

// Task ids are unique across all spawning paths.
func TestTaskIDsUnique(t *testing.T) {
	s := newTestSystem(t, 4, comm.BackendNone)
	var mu sync.Mutex
	seen := map[uint64]bool{}
	record := func(c *Ctx) {
		mu.Lock()
		defer mu.Unlock()
		if seen[c.TaskID()] {
			t.Errorf("duplicate task id %d", c.TaskID())
		}
		seen[c.TaskID()] = true
	}
	s.Run(func(c *Ctx) {
		record(c)
		c.CoforallLocales(record)
		c.Coforall(8, func(tc *Ctx, _ int) { record(tc) })
		ForallCyclic(c, 32, 2, nil, func(tc *Ctx, _ struct{}, i int) {}, nil)
	})
	if len(seen) < 13 {
		t.Fatalf("only %d distinct tasks recorded", len(seen))
	}
}
