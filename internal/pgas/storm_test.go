package pgas

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"gopgas/internal/comm"
)

// Regression guards for the goroutine-free sync dispatch and the
// inline active-message transport: storms of concurrent AsyncOn
// launches, nested async spawns, and AM atomics queued on handler
// slots must quiesce cleanly, respect the occupancy limit, and count
// exactly. These tests earn their keep under -race (CI runs the suite
// with it).

// TestAsyncOnStormQuiesce hammers AsyncOn from many initiator tasks at
// once — each async body performing a remote AM atomic and a fraction
// of them spawning a nested AsyncOn — then quiesces and checks that
// every launch ran (the shared word's value is exact) and nothing is
// still in flight.
func TestAsyncOnStormQuiesce(t *testing.T) {
	const locales = 4
	const initiators = 8
	const perInitiator = 200
	s := NewSystem(Config{Locales: locales, Backend: comm.BackendNone})
	defer s.Shutdown()

	root := s.Ctx(0)
	total := NewWord64(root, 0, 0)

	var wg sync.WaitGroup
	for g := 0; g < initiators; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % locales)
			for i := 0; i < perInitiator; i++ {
				dst := (g + i) % locales
				c.AsyncOn(dst, func(tc *Ctx) {
					total.Add(tc, 1)
					if tc.Here() != dst {
						t.Errorf("async body pinned to %d, want %d", tc.Here(), dst)
					}
					// Every fourth op spawns a nested async hop; Quiesce
					// must wait for these transitive tasks too.
					if i%4 == 0 {
						tc.AsyncOn((dst+1)%locales, func(nc *Ctx) {
							total.Add(nc, 1)
						})
					}
				})
			}
		}(g)
	}
	wg.Wait()
	s.Quiesce()
	if pending := s.AsyncPending(); pending != 0 {
		t.Fatalf("AsyncPending = %d after Quiesce", pending)
	}
	want := uint64(initiators * perInitiator)
	want += uint64(initiators * ((perInitiator + 3) / 4)) // nested hops
	if got := total.Read(root); got != want {
		t.Fatalf("storm lost updates: total = %d, want %d", got, want)
	}
}

// TestInlineAMStorm drives a storm of remote AM atomics — the amCall
// path, run inline on each caller under the target's handler slots —
// from concurrent tasks on every locale. A single slot per locale
// keeps most callers queued for it, so a handler that ran twice, never
// ran, or released a slot it did not hold would show as a wrong sum, a
// torn count, or a deadlock; the exact final value proves each call
// completed exactly once.
func TestInlineAMStorm(t *testing.T) {
	const locales = 4
	const tasks = 16
	const perTask = 300
	// BackendNone makes every remote 64-bit atomic an active message.
	s := NewSystem(Config{Locales: locales, Backend: comm.BackendNone, ProgressWorkers: 1})
	defer s.Shutdown()

	root := s.Ctx(0)
	words := make([]*Word64, locales)
	for l := 0; l < locales; l++ {
		words[l] = NewWord64(root, l, 0)
	}

	var wg sync.WaitGroup
	for g := 0; g < tasks; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := s.Ctx(g % locales)
			for i := 0; i < perTask; i++ {
				// Always target a word homed away from the caller so the
				// op must ride an AM and a handler slot.
				dst := (c.Here() + 1 + i%(locales-1)) % locales
				words[dst].Add(c, 1)
			}
		}(g)
	}
	wg.Wait()

	var sum uint64
	for l := 0; l < locales; l++ {
		sum += words[l].Read(root)
	}
	if want := uint64(tasks * perTask); sum != want {
		t.Fatalf("AM storm lost updates: sum = %d, want %d", sum, want)
	}
	snap := s.Counters().Snapshot()
	if snap.AMAMOs < tasks*perTask {
		t.Fatalf("amAMO count = %d, want >= %d", snap.AMAMOs, tasks*perTask)
	}
}

// TestAMOccupancyBound checks the modelled occupancy limit: with W
// handler slots per locale and a non-zero handler occupancy, many
// concurrent remote callers never have more than W handlers (64-bit
// AMOs and DCAS alike) running on one locale, and every handler runs
// exactly once with exact counters and matrix cells.
func TestAMOccupancyBound(t *testing.T) {
	const locales = 4
	const tasks = 12
	const perTask = 60
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("W=%d", w), func(t *testing.T) {
			s := NewSystem(Config{
				Locales:         locales,
				Backend:         comm.BackendNone,
				ProgressWorkers: w,
				Latency:         comm.LatencyProfile{AMHandlerNS: 2000},
			})
			defer s.Shutdown()

			var running, peak, ran [locales]atomic.Int64
			// handler is the op body: it holds a gauge of the handlers
			// running on its home locale and yields mid-body, so callers
			// that slipped past the slot limit would overlap here.
			handler := func(home int) {
				n := running[home].Add(1)
				for {
					p := peak[home].Load()
					if n <= p || peak[home].CompareAndSwap(p, n) {
						break
					}
				}
				runtime.Gosched()
				ran[home].Add(1)
				running[home].Add(-1)
			}

			var wg sync.WaitGroup
			for g := 0; g < tasks; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					c := s.Ctx(g % locales)
					for i := 0; i < perTask; i++ {
						home := (c.Here() + 1 + i%(locales-1)) % locales
						if i%2 == 0 {
							s.dispatchAMO64(c, home, func() uint64 { handler(home); return 0 })
						} else {
							s.dispatchDCAS(c, home, func() { handler(home) })
						}
					}
				}(g)
			}
			wg.Wait()

			var total int64
			for l := 0; l < locales; l++ {
				if p := peak[l].Load(); p > int64(w) {
					t.Errorf("locale %d ran %d AM handlers at once, limit %d", l, p, w)
				}
				total += ran[l].Load()
			}
			if want := int64(tasks * perTask); total != want {
				t.Fatalf("handlers ran %d times, want %d", total, want)
			}
			snap := s.Counters().Snapshot()
			if want := int64(tasks * perTask / 2); snap.AMAMOs != want || snap.DCASRemote != want {
				t.Fatalf("AMAMOs=%d DCASRemote=%d, want %d each", snap.AMAMOs, snap.DCASRemote, want)
			}
			if got, want := s.Matrix().Total(), int64(tasks*perTask); got != want {
				t.Fatalf("matrix total = %d, want %d", got, want)
			}
		})
	}
}

// TestAMAfterShutdownPanics checks the explicit guard: an AM atomic
// issued once Shutdown has returned panics with a clear message
// instead of running against a retired system.
func TestAMAfterShutdownPanics(t *testing.T) {
	s := NewSystem(Config{Locales: 2, Backend: comm.BackendNone})
	c := s.Ctx(0)
	w := NewWord64(c, 1, 0)
	s.Shutdown()
	defer func() {
		const want = "pgas: active message after Shutdown"
		if r := recover(); r != want {
			t.Fatalf("recovered %v, want %q", r, want)
		}
	}()
	w.Add(c, 1)
}

// TestShutdownQuiesceWindowAllowsAM checks the other side of the
// guard: async work still draining inside Shutdown's quiesce window
// may issue AM atomics, and they land.
func TestShutdownQuiesceWindowAllowsAM(t *testing.T) {
	const launches = 8
	s := NewSystem(Config{Locales: 3, Backend: comm.BackendNone})
	c := s.Ctx(0)
	w := NewWord64(c, 2, 0)
	release := make(chan struct{})
	for i := 0; i < launches; i++ {
		c.AsyncOn(1, func(tc *Ctx) {
			<-release
			w.Add(tc, 1)
			d := NewWord128(tc, 0, 0, 0)
			d.DCAS(tc, 0, 0, 1, 1)
		})
	}
	go func() {
		// Let Shutdown begin draining before the async bodies run.
		for !s.closing.Load() {
			runtime.Gosched()
		}
		close(release)
	}()
	s.Shutdown()
	if got := w.v.Load(); got != launches {
		t.Fatalf("word = %d after Shutdown, want %d", got, launches)
	}
	if snap := s.Counters().Snapshot(); snap.AMAMOs != launches || snap.DCASRemote != launches {
		t.Fatalf("AMAMOs=%d DCASRemote=%d, want %d each", snap.AMAMOs, snap.DCASRemote, launches)
	}
}

// TestSyncOnPooledCtxStreams checks the determinism contract the Ctx
// pool must preserve: a pooled on-statement context draws a fresh task
// id and RNG seed exactly as a spawned one would, so (a) the callee's
// random stream differs from the caller's in-flight stream, and (b)
// two systems built with the same seed replay identical streams even
// though one has a warm pool and the other starts cold.
func TestSyncOnPooledCtxStreams(t *testing.T) {
	run := func() [][]int {
		s := NewSystem(Config{Locales: 2, Seed: 99})
		defer s.Shutdown()
		var draws [][]int
		c := s.Ctx(0)
		for i := 0; i < 5; i++ {
			var inner []int
			c.On(1, func(tc *Ctx) {
				if tc.Here() != 1 {
					t.Fatalf("callee Here() = %d", tc.Here())
				}
				for k := 0; k < 3; k++ {
					inner = append(inner, tc.RandIntn(1000))
				}
				// Nested sync hop back to the caller's locale: borrows a
				// second pooled Ctx while the first is still in use.
				tc.On(0, func(nc *Ctx) {
					inner = append(inner, nc.RandIntn(1000))
				})
			})
			inner = append(inner, c.RandIntn(1000))
			draws = append(draws, inner)
		}
		return draws
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("draw shape mismatch: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("row %d shape mismatch", i)
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("pooled Ctx perturbed the RNG streams: run1[%d][%d]=%d run2=%d",
					i, j, a[i][j], b[i][j])
			}
		}
	}
}
