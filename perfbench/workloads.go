package main

import (
	"fmt"

	"gopgas/internal/comm"
	"gopgas/internal/core/epoch"
	"gopgas/internal/structures/hashmap"
	"gopgas/internal/structures/queue"
	"gopgas/internal/structures/stack"
)

// The four workloads. Each names its System configuration, its op mix
// (which kinds, at what share, issued from which locales) and the
// structure it drives; README.md gives the reasons for each shape.

const (
	locales = 8

	// queuePrefill is the number of values each single-home structure of
	// queue-stack-ebr holds before the first timed op, and stealPrefill
	// the number each producer segment of queue-steal holds.
	queuePrefill = 30000
	stealPrefill = 30000

	// mapBuckets keeps chains short: 2^16 keys, about half present,
	// over 2^14 buckets is two nodes per chain on average.
	mapBuckets = 1 << 14
	zipfTheta  = 0.99

	// aggCapacity is the per-destination buffer size of map-write-agg,
	// and flushEvery the number of a client's ops between its explicit
	// flushes of all its contexts.
	aggCapacity = 64
	flushEvery  = 256
)

var allLocales = []int{0, 1, 2, 3, 4, 5, 6, 7}

// bench is one workload's structure state: set-up, one op, a client's
// last act, and the post-run output check.
type bench interface {
	// setup creates the structures on e.sys and fills them.
	setup(e *env)
	// exec runs o for cl, which took t0 just before; it records the
	// call and completion times and checks the op's output.
	exec(cl *client, o op, t0 int64)
	// finish completes the client's outstanding ops.
	finish(cl *client)
	// check verifies the final contents and returns the number of ops
	// it found to have failed.
	check(e *env) int64
}

type workload struct {
	name     string
	backend  comm.Backend
	agg      comm.AggConfig
	mix      []share
	keys     bool // map workloads draw Zipf keys
	newBench func() bench
}

var workloads = []workload{
	{
		name:    "queue-stack-ebr",
		backend: comm.BackendNone,
		mix: []share{
			{kEnqueue, 25, allLocales}, {kDequeue, 25, allLocales},
			{kPush, 25, allLocales}, {kPop, 25, allLocales},
		},
		newBench: func() bench { return &queueStack{} },
	},
	{
		name:    "map-read-zipf",
		backend: comm.BackendUGNI,
		mix: []share{
			{kGet, 90, allLocales}, {kUpsert, 5, allLocales}, {kRemove, 5, allLocales},
		},
		keys:     true,
		newBench: func() bench { return &mapBench{exact: true} },
	},
	{
		name:    "map-write-agg",
		backend: comm.BackendNone,
		agg:     comm.AggConfig{Capacity: aggCapacity, Combine: true},
		mix: []share{
			{kUpsertAgg, 45, allLocales}, {kRemoveAgg, 45, allLocales}, {kGet, 10, allLocales},
		},
		keys:     true,
		newBench: func() bench { return &mapBench{} },
	},
	{
		name:    "queue-steal",
		backend: comm.BackendNone,
		mix: []share{
			{kEnqueue, 50, []int{0, 1}}, {kTryDequeueAny, 50, []int{2, 3, 4, 5, 6, 7}},
		},
		newBench: func() bench { return &steal{} },
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// queueStack drives queue-stack-ebr.
type queueStack struct {
	q      *queue.Queue[uint64]
	s      *stack.Stack[uint64]
	ql, sl *ledger
}

func (b *queueStack) setup(e *env) {
	c := e.sys.Ctx(0)
	b.q = queue.New[uint64](c, 0, e.em)
	b.s = stack.New[uint64](c, 0, e.em)
	prefill := len(e.clients) // producer id of the prefill
	b.ql, b.sl = newLedger(prefill+1), newLedger(prefill+1)
	tok := e.em.Register(c)
	for i := 0; i < queuePrefill; i++ {
		b.q.Enqueue(c, tok, b.ql.produce(prefill, 0))
		b.s.Push(c, tok, b.sl.produce(prefill, 0))
	}
	tok.Unregister(c)
	for _, cl := range e.clients {
		cl.fifo = newFifo(prefill+1, 1)
	}
}

func (b *queueStack) exec(cl *client, o op, t0 int64) {
	c, tok := cl.ctx[o.loc], cl.tok[o.loc]
	var err error
	switch o.kind {
	case kEnqueue:
		v := b.ql.produce(cl.id, 0)
		b.q.Enqueue(c, tok, v)
		cl.completed(o.kind, t0)
	case kPush:
		v := b.sl.produce(cl.id, 0)
		b.s.Push(c, tok, v)
		cl.completed(o.kind, t0)
	case kDequeue:
		v, ok := b.q.Dequeue(c, tok)
		cl.completed(o.kind, t0)
		if ok {
			if err = b.ql.consume(v); err == nil {
				err = cl.fifo.observe(v, 0)
			}
		}
	case kPop:
		v, ok := b.s.Pop(c, tok)
		cl.completed(o.kind, t0)
		if ok {
			err = b.sl.consume(v)
		}
	}
	cl.check(err)
}

func (b *queueStack) finish(*client) {}

func (b *queueStack) check(e *env) int64 {
	c := e.sys.Ctx(0)
	tok := e.em.Register(c)
	defer tok.Unregister(c)
	f := newFifo(len(b.ql.prods), 1)
	var failed int64
	for {
		v, ok := b.q.Dequeue(c, tok)
		if !ok {
			break
		}
		if err := b.ql.consume(v); err != nil {
			failed += e.fail(err)
		} else if err := f.observe(v, 0); err != nil {
			failed += e.fail(err)
		}
	}
	for {
		v, ok := b.s.Pop(c, tok)
		if !ok {
			break
		}
		if err := b.sl.consume(v); err != nil {
			failed += e.fail(err)
		}
	}
	if n := b.ql.missing() + b.sl.missing(); n > 0 {
		failed += e.fail(fmt.Errorf("%d produced values were never consumed", n))
	}
	return failed
}

// steal drives queue-steal.
type steal struct {
	q queue.Sharded[uint64]
	l *ledger
}

func (b *steal) setup(e *env) {
	b.q = queue.NewSharded[uint64](e.sys.Ctx(0), e.em)
	prefill := len(e.clients)
	b.l = newLedger(prefill + 1)
	for _, seg := range []int{0, 1} {
		c := e.sys.Ctx(seg)
		tok := e.em.Register(c)
		for i := 0; i < stealPrefill; i++ {
			b.q.Enqueue(c, tok, b.l.produce(prefill, seg))
		}
		tok.Unregister(c)
	}
	for _, cl := range e.clients {
		cl.fifo = newFifo(prefill+1, locales)
	}
}

func (b *steal) exec(cl *client, o op, t0 int64) {
	c, tok := cl.ctx[o.loc], cl.tok[o.loc]
	var err error
	switch o.kind {
	case kEnqueue:
		b.q.Enqueue(c, tok, b.l.produce(cl.id, o.loc))
		cl.completed(o.kind, t0)
	case kTryDequeueAny:
		v, from, ok := b.q.TryDequeueAny(c, tok)
		cl.completed(o.kind, t0)
		cl.countSteal(t0, ok)
		if ok {
			if err = b.l.consume(v); err == nil {
				err = cl.fifo.observe(v, from)
			}
		}
	}
	cl.check(err)
}

func (b *steal) finish(*client) {}

func (b *steal) check(e *env) int64 {
	f := newFifo(len(b.l.prods), locales)
	var failed int64
	for seg, vals := range b.q.Drain(e.sys.Ctx(0)) {
		for _, v := range vals {
			if err := b.l.consume(v); err != nil {
				failed += e.fail(err)
			} else if err := f.observe(v, seg); err != nil {
				failed += e.fail(err)
			}
		}
	}
	if n := b.l.missing(); n > 0 {
		failed += e.fail(fmt.Errorf("%d produced values were never consumed", n))
	}
	return failed
}

// mapBench drives both map workloads. exact selects synchronous writes
// (Upsert/Remove, whose own-key reads must match the shadow exactly);
// otherwise writes go through UpsertAgg/RemoveAgg.
type mapBench struct {
	exact bool
	m     hashmap.Map[uint64]
	sh    *shadow
}

func (b *mapBench) setup(e *env) {
	c := e.sys.Ctx(0)
	b.m = hashmap.New[uint64](c, mapBuckets, e.em)
	b.sh = newShadow(len(e.clients) * locales)
	// Preload about half the keys, chosen by the seed, each with its
	// writer task's sequence 0; the bulk path routes every pair to its
	// bucket's owner.
	pick := newKeyPerm(e.seed ^ 0x70726531)
	pairs := make([]hashmap.KV[uint64], 0, numKeys/2)
	for r := 0; r < numKeys/2; r++ {
		k := pick.key(r)
		v := mapVal(k, writerOf(k, b.sh.writers), 0)
		b.sh.vals[k] = v
		pairs = append(pairs, hashmap.KV[uint64]{K: k, V: v})
	}
	b.m.InsertBulk(c, pairs)
	for _, cl := range e.clients {
		cl.pending = make([][][]int64, locales)
		for l := range cl.pending {
			cl.pending[l] = make([][]int64, locales)
			for d := range cl.pending[l] {
				cl.pending[l][d] = make([]int64, 0, flushEvery+1)
			}
		}
	}
}

func (b *mapBench) own(cl *client, key uint64) bool {
	return writerOf(key, b.sh.writers)/locales == cl.id
}

func (b *mapBench) exec(cl *client, o op, t0 int64) {
	c, tok := cl.ctx[o.loc], cl.tok[o.loc]
	var err error
	switch o.kind {
	case kGet:
		v, ok := b.m.Get(c, tok, o.key)
		cl.completed(o.kind, t0)
		err = b.sh.checkGet(o.key, v, ok, b.own(cl, o.key), b.exact)
	case kUpsert:
		present := b.sh.vals[o.key] != 0
		replaced := b.m.Upsert(c, tok, o.key, b.sh.write(o.key, false))
		cl.completed(o.kind, t0)
		if replaced != present {
			err = fmt.Errorf("upsert %d replaced=%v, own shadow says present=%v", o.key, replaced, present)
		}
	case kRemove:
		present := b.sh.vals[o.key] != 0
		b.sh.write(o.key, true)
		removed := b.m.Remove(c, tok, o.key)
		cl.completed(o.kind, t0)
		if removed != present {
			err = fmt.Errorf("remove %d removed=%v, own shadow says present=%v", o.key, removed, present)
		}
	case kUpsertAgg, kRemoveAgg:
		dst := b.m.HomeOf(o.key)
		v := b.sh.write(o.key, o.kind == kRemoveAgg)
		if o.kind == kRemoveAgg {
			b.m.RemoveAgg(c, o.key)
		} else {
			b.m.UpsertAgg(c, o.key, v)
		}
		t1 := cl.callDone(o.kind, t0)
		if dst == o.loc {
			cl.complete(t0, t1) // applied inline
			break
		}
		cl.pending[o.loc][dst] = append(cl.pending[o.loc][dst], t0)
		if c.Aggregator(dst).Pending() == 0 { // shipped at capacity
			cl.settle(o.loc, dst, t1)
		}
	}
	cl.check(err)
	if !b.exact {
		if cl.sinceFlush++; cl.sinceFlush == flushEvery {
			b.finish(cl)
		}
	}
}

// finish flushes every context of the client; each flush completes the
// ops buffered in it.
func (b *mapBench) finish(cl *client) {
	if b.exact {
		return
	}
	cl.sinceFlush = 0
	for l, c := range cl.ctx {
		t0 := cl.now()
		c.Flush()
		t1 := cl.now()
		cl.flush.record(cl, t0, t1)
		for d := range cl.pending[l] {
			cl.settle(l, d, t1)
		}
	}
}

func (b *mapBench) check(e *env) int64 {
	c := e.sys.Ctx(0)
	got := make([]uint64, numKeys)
	var failed int64
	e.em.Protect(c, func(tok *epoch.Token) {
		b.m.ForEach(c, tok, func(k uint64, v uint64) bool {
			if k >= numKeys || got[k] != 0 {
				failed += e.fail(fmt.Errorf("map holds key %d twice or out of range", k))
				return true
			}
			got[k] = v
			return true
		})
	})
	if n := b.sh.diff(got); n > 0 {
		failed += e.fail(fmt.Errorf("%d keys differ from the writers' shadow", n))
	}
	return failed
}
