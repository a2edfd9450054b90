package main

import (
	"sync"
	"time"

	"gopgas/internal/core/atomics"
	"gopgas/internal/core/epoch"
	"gopgas/internal/gas"
	"gopgas/internal/pgas"
)

const (
	// probeTime bounds the timed calls of each probe per goroutine, and
	// probeCalls their number, whichever comes first.
	probeTime  = 100 * time.Millisecond
	probeCalls = 1 << 16
	// probeBatch is the number of calls timed between clock reads; it
	// stays below every configured aggregation capacity.
	probeBatch = 32
)

type probeObj struct{ v uint64 }

// probeFn prepares one goroutine's state on context c and returns a
// batch body, which makes probeBatch calls and returns the time they
// took (leaving untimed any per-batch preparation), and an optional
// clean-up.
type probeFn func(c *pgas.Ctx) (batch func() time.Duration, done func())

// timed runs probeBatch calls of f and returns their duration.
func timed(f func()) time.Duration {
	t := time.Now()
	for i := 0; i < probeBatch; i++ {
		f()
	}
	return time.Since(t)
}

// probe times single calls into the pgas, gas, atomics and epoch
// layers on a fresh System with the workload's configuration, from as
// many goroutines as the workload has clients. Goroutine g issues from
// locale 1+g toward objects homed on locale 0, so every probe but
// pin/unpin and defer-delete (locale-local by design) crosses locales.
// Each value is the median over the goroutines of their mean
// nanoseconds per call.
func probe(cfg pgas.Config, goroutines int) map[string]float64 {
	sys := pgas.NewSystem(cfg)
	defer sys.Shutdown()
	home := sys.Ctx(0)
	em := epoch.NewEpochManager(home)
	word := pgas.NewWord64(home, 0, 0)
	target := home.Alloc(&probeObj{})
	noop := func(*pgas.Ctx) {}

	probes := map[string]probeFn{
		"pgas.amo64_remote_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			return func() time.Duration { return timed(func() { word.Read(c) }) }, nil
		},
		"pgas.dcas_remote_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			w := pgas.NewWord128(home, 0, 0, 0)
			var n uint64
			return func() time.Duration {
				return timed(func() { w.DCAS(c, n, n, n+1, n+1); n++ })
			}, nil
		},
		"pgas.alloc_on_remote_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			addrs := make([]gas.Addr, 0, probeCalls)
			return func() time.Duration {
				return timed(func() { addrs = append(addrs, c.AllocOn(0, &probeObj{})) })
			}, func() { home.FreeBulk(0, addrs) }
		},
		"pgas.on_sync_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			return func() time.Duration { return timed(func() { c.On(0, noop) }) }, nil
		},
		"pgas.agg_enqueue_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			buf := c.Aggregator(0)
			return func() time.Duration {
				buf.Flush()
				return timed(func() { buf.Call(noop) })
			}, func() { buf.Flush() }
		},
		"gas.deref_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			return func() time.Duration { return timed(func() { pgas.Deref[*probeObj](c, target) }) }, nil
		},
		"epoch.pin_unpin_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			tok := em.Register(c)
			return func() time.Duration {
				return timed(func() { tok.Pin(c); tok.Unpin(c) })
			}, func() { tok.Unregister(c) }
		},
		"epoch.defer_delete_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			tok := em.Register(c)
			tok.Pin(c)
			objs := make([]gas.Addr, probeBatch)
			return func() time.Duration {
					for i := range objs {
						objs[i] = c.Alloc(&probeObj{})
					}
					i := 0
					return timed(func() { tok.DeferDelete(c, objs[i]); i++ })
				}, func() {
					tok.Unpin(c)
					tok.Unregister(c)
				}
		},
		"atomics.cas_remote_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			ao := atomics.New(home, 0, atomics.Options{})
			x, y := home.Alloc(&probeObj{}), home.Alloc(&probeObj{})
			ao.Write(home, x)
			return func() time.Duration {
				return timed(func() { ao.CompareAndSwap(c, x, y); x, y = y, x })
			}, nil
		},
		"atomics.cas_aba_remote_ns": func(c *pgas.Ctx) (func() time.Duration, func()) {
			ao := atomics.New(home, 0, atomics.Options{ABA: true})
			x, y := home.Alloc(&probeObj{}), home.Alloc(&probeObj{})
			cur := ao.ReadABA(home)
			return func() time.Duration {
				return timed(func() {
					ao.CompareAndSwapABA(c, cur, x)
					cur = atomics.MakeABA(x, cur.Count()+1)
					x, y = y, x
				})
			}, nil
		},
	}

	out := make(map[string]float64, len(probes))
	for name, prep := range probes {
		ns := make([]float64, goroutines)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			batch, done := prep(sys.Ctx(1 + g))
			wg.Add(1)
			go func() {
				defer wg.Done()
				var spent time.Duration
				calls := 0
				for spent < probeTime && calls < probeCalls {
					spent += batch()
					calls += probeBatch
				}
				ns[g] = float64(spent.Nanoseconds()) / float64(calls)
				if done != nil {
					done()
				}
			}()
		}
		wg.Wait()
		out[name] = median(ns)
	}
	em.Clear(home)
	return out
}
