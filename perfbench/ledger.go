package main

import (
	"fmt"
	"sync/atomic"
)

// Output checks for the queue and stack workloads. Every value a
// producer hands to a structure is unique: it packs the producer id,
// the segment it was enqueued into, and the producer's sequence number.
// The ledger records each value's consumption in a per-producer bitmap,
// so a value dequeued twice, a value nobody produced, and (after the
// final drain) a value never seen again are all detected. A fifo
// tracker per consumer checks that each producer's values leave each
// segment in the order they entered it.

const (
	seqBits   = 48
	segShift  = seqBits
	prodShift = seqBits + 8
	seqMask   = 1<<seqBits - 1
)

func packVal(producer, seg int, seq uint64) uint64 {
	return uint64(producer)<<prodShift | uint64(seg)<<segShift | seq
}

func unpackVal(v uint64) (producer, seg int, seq uint64) {
	return int(v >> prodShift), int(v >> segShift & 0xff), v & seqMask
}

const (
	chunkBits  = 1 << 20
	chunkWords = chunkBits / 64
	maxChunks  = 1 << 10
)

type bitChunk [chunkWords]atomic.Uint64

// producerLog is one producer's sequence counter and consumption bitmap.
// Only the producer advances seq and allocates chunks; it publishes both
// before handing the value to the structure, so a consumer (who obtained
// the value through the structure's own synchronisation) always finds
// the chunk present and seq at least the value's.
type producerLog struct {
	seq    atomic.Uint64
	chunks [maxChunks]atomic.Pointer[bitChunk]
}

// ledger is the exactly-once record of one structure.
type ledger struct {
	prods []*producerLog
}

func newLedger(producers int) *ledger {
	l := &ledger{prods: make([]*producerLog, producers)}
	for i := range l.prods {
		l.prods[i] = &producerLog{}
		l.prods[i].chunks[0].Store(new(bitChunk))
	}
	return l
}

// produce returns the next value of producer p for segment seg. Only
// producer p may call it.
func (l *ledger) produce(p, seg int) uint64 {
	pl := l.prods[p]
	seq := pl.seq.Load() + 1
	if seq%chunkBits == 0 {
		pl.chunks[seq/chunkBits].Store(new(bitChunk))
	}
	pl.seq.Store(seq)
	return packVal(p, seg, seq)
}

// consume records one consumption of v.
func (l *ledger) consume(v uint64) error {
	p, _, seq := unpackVal(v)
	if p >= len(l.prods) || seq == 0 || seq > l.prods[p].seq.Load() {
		return fmt.Errorf("value %#x was never produced", v)
	}
	ch := l.prods[p].chunks[seq/chunkBits].Load()
	bit := uint64(1) << (seq % 64)
	if ch[seq%chunkBits/64].Or(bit)&bit != 0 {
		return fmt.Errorf("value %#x consumed twice", v)
	}
	return nil
}

// missing counts produced values never consumed. Call once every
// producer and consumer has stopped.
func (l *ledger) missing() int64 {
	var n int64
	for _, pl := range l.prods {
		for seq := uint64(1); seq <= pl.seq.Load(); seq++ {
			ch := pl.chunks[seq/chunkBits].Load()
			if ch[seq%chunkBits/64].Load()&(1<<(seq%64)) == 0 {
				n++
			}
		}
	}
	return n
}

// fifo is one consumer's order check: per (producer, segment) the last
// sequence number seen must strictly increase.
type fifo struct {
	last [][]uint64
}

func newFifo(producers, segments int) *fifo {
	f := &fifo{last: make([][]uint64, producers)}
	for i := range f.last {
		f.last[i] = make([]uint64, segments)
	}
	return f
}

// observe checks v, dequeued from segment from.
func (f *fifo) observe(v uint64, from int) error {
	p, seg, seq := unpackVal(v)
	if seg != from {
		return fmt.Errorf("value %#x enqueued on segment %d came out of segment %d", v, seg, from)
	}
	if p >= len(f.last) || seg >= len(f.last[p]) {
		return fmt.Errorf("value %#x was never produced", v)
	}
	if seq <= f.last[p][seg] {
		return fmt.Errorf("value %#x of producer %d left segment %d after sequence %d", v, p, seg, f.last[p][seg])
	}
	f.last[p][seg] = seq
	return nil
}

// Output checks for the map workloads. A value packs its key, its
// writer task and the writer's sequence number; each key has exactly
// one writer task, so the writer's own shadow is the truth for its
// keys.

func mapVal(key uint64, writer int, seq uint64) uint64 {
	return key<<48 | uint64(writer+1)<<40 | seq
}

func unpackMapVal(v uint64) (key uint64, writer int, seq uint64) {
	return v >> 48, int(v>>40&0xff) - 1, v & (1<<40 - 1)
}

// shadow is the map's expected contents: vals[k] is k's current value
// or 0 when absent. Element k is written only by the client owning k's
// writer task, so clients share the slice without synchronisation;
// lastSeq likewise has one writing client per task.
type shadow struct {
	writers int
	vals    []uint64
	lastSeq []uint64
}

func newShadow(writers int) *shadow {
	return &shadow{writers: writers, vals: make([]uint64, numKeys), lastSeq: make([]uint64, writers)}
}

// write records a write by the key's writer task and returns the value
// to store (0 for a removal is recorded as absence).
func (s *shadow) write(key uint64, remove bool) uint64 {
	w := writerOf(key, s.writers)
	s.lastSeq[w]++
	v := mapVal(key, w, s.lastSeq[w])
	if remove {
		s.vals[key] = 0
	} else {
		s.vals[key] = v
	}
	return v
}

// checkGet checks a Get of key that returned (v, ok). own marks a key
// whose writer task belongs to the calling client; exact additionally
// demands agreement with the shadow (synchronous writes), otherwise an
// own key may lag behind buffered writes but never run ahead of them.
func (s *shadow) checkGet(key, v uint64, ok, own, exact bool) error {
	if own && exact {
		if want := s.vals[key]; v != want || ok != (want != 0) {
			return fmt.Errorf("get %d = (%#x, %v), own shadow holds %#x", key, v, ok, want)
		}
		return nil
	}
	if !ok {
		return nil
	}
	k, w, seq := unpackMapVal(v)
	if k != key || w != writerOf(key, s.writers) {
		return fmt.Errorf("get %d returned %#x (key %d, writer %d)", key, v, k, w)
	}
	if own && seq > s.lastSeq[w] {
		return fmt.Errorf("get %d returned sequence %d beyond the writer's last %d", key, seq, s.lastSeq[w])
	}
	return nil
}

// diff counts keys whose final map contents disagree with the shadow.
// got is the map's contents, indexed like vals.
func (s *shadow) diff(got []uint64) int64 {
	var n int64
	for k, want := range s.vals {
		if got[k] != want {
			n++
		}
	}
	return n
}
