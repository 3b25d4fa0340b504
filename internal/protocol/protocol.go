// Package protocol implements the end-to-end reliable-delivery layer over
// the on-chip network: per-source sequence numbers stamped at injection, a
// retransmission timer with exponential backoff and a retry cap, duplicate
// suppression at the ejection port, and terminal give-up backed by a
// fault-region reachability oracle. The network owns the mechanisms (packet
// launch, broken-set membership, the route engine); this package owns the
// policy and bookkeeping. Everything here is deterministic — timer order is
// a total order over (deadline, source, sequence) — so activity-gated and
// reference kernel runs stay bit-identical with the protocol enabled.
package protocol

import (
	"container/heap"
	"fmt"

	"github.com/rocosim/roco/internal/flit"
)

// Params tunes the retransmission policy. The zero value selects defaults
// sized for the paper's 8x8 mesh.
type Params struct {
	// Timeout is the base retransmission timeout in cycles: how long a
	// source waits for its copy's tail to be delivered before inspecting
	// it. Each retransmission doubles the wait (exponential backoff).
	Timeout int64
	// MaxTimeout caps the backoff. The network additionally clamps it to
	// half its inactivity limit so a backed-off timer can never outlive
	// the run's liveness window.
	MaxTimeout int64
	// MaxRetries caps retransmissions per logical packet; a packet whose
	// copies keep breaking past the cap is given up with
	// RetriesExhausted.
	MaxRetries int
}

// Normalized fills zero fields with defaults and repairs inconsistent
// combinations. Idempotent.
func (p Params) Normalized() Params {
	if p.Timeout <= 0 {
		p.Timeout = 256
	}
	if p.MaxTimeout <= 0 {
		p.MaxTimeout = 4096
	}
	if p.MaxTimeout < p.Timeout {
		p.MaxTimeout = p.Timeout
	}
	if p.MaxRetries <= 0 {
		p.MaxRetries = 16
	}
	return p
}

// GiveUpReason says why the protocol stopped retransmitting a packet.
type GiveUpReason uint8

const (
	// Unreachable: the fault-region map proves no fresh copy can reach
	// the destination (every route the discipline could take crosses a
	// fault that denies service).
	Unreachable GiveUpReason = iota
	// RetriesExhausted: the retry cap was hit while the oracle still
	// considered the destination reachable (e.g. adaptive routing kept
	// steering copies into a fault the conservative oracle routes
	// around).
	RetriesExhausted
)

// String names the reason.
func (r GiveUpReason) String() string {
	switch r {
	case Unreachable:
		return "unreachable"
	case RetriesExhausted:
		return "retries-exhausted"
	default:
		return "?"
	}
}

// GiveUp records one logical packet the protocol terminally abandoned.
type GiveUp struct {
	// Src, Dst, Seq and Origin identify the logical packet (Origin is the
	// first attempt's physical packet ID; measurement windows key on it).
	Src, Dst int
	Seq      uint64
	Origin   uint64
	// Attempts counts transmissions tried, Cycle when the give-up was
	// decided, Reason why.
	Attempts int
	Cycle    int64
	Reason   GiveUpReason
}

// Entry is the live retransmission state of one unresolved logical packet.
type Entry struct {
	// Src, Dst, Seq, Origin: the logical identity (see GiveUp).
	Src, Dst int
	Seq      uint64
	Origin   uint64
	// CurID is the physical packet ID of the latest copy; the network
	// tests it against the broken set to decide whether the copy is
	// provably lost.
	CurID uint64
	// CreatedAt is the logical packet's creation cycle (latency is
	// measured from here no matter which copy delivers).
	CreatedAt int64
	// Attempts counts transmissions so far (1 = only the original).
	Attempts int

	timeout  int64 // current timeout (doubles per retransmission)
	deadline int64 // next timer expiry
	resolved bool  // lazily deletes the entry from the timer heap
}

// Env supplies the network-side mechanisms Expire consults. All three
// callbacks must be deterministic functions of simulation state.
type Env struct {
	// CopyBroken reports whether the given physical copy lost a flit (the
	// network's broken set). A broken copy can never deliver its tail.
	CopyBroken func(packetID uint64) bool
	// Deliverable consults the fault-region map: can a fresh copy still
	// reach dst, and in which dimension-order mode should it be launched
	// (fault-region rerouting picks the surviving order under XY-YX)?
	Deliverable func(src, dst int) (bool, flit.RouteMode)
	// Launch enqueues a fresh copy of the entry's packet at its source PE
	// and returns the copy's physical packet ID.
	Launch func(e *Entry, mode flit.RouteMode) uint64
}

// Tracker is the per-run protocol state: one retransmission entry per
// unresolved logical packet, a deadline-ordered timer heap, and per-source
// resolved windows for duplicate suppression.
type Tracker struct {
	params  Params
	entries map[entryKey]*Entry
	timers  entryHeap
	wins    []window
	nextSeq []uint64

	pending         int
	retransmissions int64
	recovered       int64
	giveUps         []GiveUp
}

type entryKey struct {
	src int
	seq uint64
}

// NewTracker builds a tracker for a nodes-node network.
func NewTracker(nodes int, p Params) *Tracker {
	return &Tracker{
		params:  p.Normalized(),
		entries: make(map[entryKey]*Entry),
		wins:    make([]window, nodes),
		nextSeq: make([]uint64, nodes),
	}
}

// Stamp registers a fresh logical packet at its first transmission and
// returns its per-source sequence number (1-based; 0 never occurs, so a
// zero SrcSeq on a flit always means "protocol off").
func (t *Tracker) Stamp(src, dst int, packetID uint64, createdAt int64) uint64 {
	t.nextSeq[src]++
	seq := t.nextSeq[src]
	e := &Entry{
		Src: src, Dst: dst, Seq: seq,
		Origin: packetID, CurID: packetID,
		CreatedAt: createdAt, Attempts: 1,
		timeout:  t.params.Timeout,
		deadline: createdAt + t.params.Timeout,
	}
	t.entries[entryKey{src, seq}] = e
	heap.Push(&t.timers, e)
	t.pending++
	return seq
}

// Resolved reports whether the logical packet (src, seq) has already been
// accepted (delivered) or abandoned. The ejection port consults it to
// suppress duplicate flits.
func (t *Tracker) Resolved(src int, seq uint64) bool {
	return t.wins[src].has(seq)
}

// Ack records the tail delivery of logical packet (src, seq). It returns
// whether the delivery was accepted (false = duplicate, suppress it) and
// whether the accepted copy was a retransmission (a recovered packet).
func (t *Tracker) Ack(src int, seq uint64, cycle int64) (accepted, retransmitted bool) {
	if t.wins[src].has(seq) {
		return false, false
	}
	t.wins[src].add(seq)
	k := entryKey{src, seq}
	e, ok := t.entries[k]
	if !ok {
		panic(fmt.Sprintf("protocol: ack for untracked packet src=%d seq=%d", src, seq))
	}
	e.resolved = true
	delete(t.entries, k)
	t.pending--
	if e.Attempts > 1 {
		t.recovered++
		return true, true
	}
	return true, false
}

// Expire runs the retransmission timers for the cycle: every entry whose
// deadline has passed is inspected. A copy not provably lost re-arms the
// timer unchanged (it may still deliver; retransmitting would risk
// duplicates and the copy's break — if it ever comes — restarts the clock
// anyway). A broken copy triggers the terminal checks: give up when the
// oracle proves the destination unreachable or the retry cap is hit,
// otherwise launch a fresh copy with doubled (capped) timeout. It returns
// the number of retransmissions plus give-ups decided this call, so the
// caller can note liveness progress.
func (t *Tracker) Expire(cycle int64, env Env) int {
	acted := 0
	for t.timers.Len() > 0 && t.timers[0].deadline <= cycle {
		e := heap.Pop(&t.timers).(*Entry)
		if e.resolved {
			continue
		}
		if !env.CopyBroken(e.CurID) {
			e.deadline = cycle + e.timeout
			heap.Push(&t.timers, e)
			continue
		}
		ok, mode := env.Deliverable(e.Src, e.Dst)
		switch {
		case !ok:
			t.giveUp(e, cycle, Unreachable)
		case e.Attempts > t.params.MaxRetries:
			t.giveUp(e, cycle, RetriesExhausted)
		default:
			e.CurID = env.Launch(e, mode)
			e.Attempts++
			t.retransmissions++
			e.timeout *= 2
			if e.timeout > t.params.MaxTimeout {
				e.timeout = t.params.MaxTimeout
			}
			e.deadline = cycle + e.timeout
			heap.Push(&t.timers, e)
		}
		acted++
	}
	return acted
}

// giveUp terminally abandons an entry. Abandonment marks the packet
// resolved in the duplicate window too: the abandoned copy is broken and
// can never deliver its tail, but stray non-tail flits of it may still
// reach the ejection port and must be suppressed from goodput.
func (t *Tracker) giveUp(e *Entry, cycle int64, reason GiveUpReason) {
	e.resolved = true
	delete(t.entries, entryKey{e.Src, e.Seq})
	t.wins[e.Src].add(e.Seq)
	t.pending--
	t.giveUps = append(t.giveUps, GiveUp{
		Src: e.Src, Dst: e.Dst, Seq: e.Seq, Origin: e.Origin,
		Attempts: e.Attempts, Cycle: cycle, Reason: reason,
	})
}

// Pending returns the number of unresolved logical packets; the network's
// drain condition requires it to reach zero.
func (t *Tracker) Pending() int { return t.pending }

// Retransmissions returns the total copies launched beyond first attempts.
func (t *Tracker) Retransmissions() int64 { return t.retransmissions }

// Recovered returns the logical packets whose accepted delivery was a
// retransmitted copy — losses the protocol repaired.
func (t *Tracker) Recovered() int64 { return t.recovered }

// GiveUps returns the packets terminally abandoned, in decision order.
func (t *Tracker) GiveUps() []GiveUp { return t.giveUps }

// window tracks the resolved sequence numbers of one source, compacted as
// a contiguous prefix plus an overflow set. Sequence numbers are issued
// densely from 1 and mostly resolve near-in-order, so the overflow stays
// tiny and the window never grows with run length.
type window struct {
	contig uint64 // every seq in [1, contig] is resolved
	over   map[uint64]struct{}
}

func (w *window) has(seq uint64) bool {
	if seq <= w.contig {
		return true
	}
	_, ok := w.over[seq]
	return ok
}

func (w *window) add(seq uint64) {
	if seq <= w.contig {
		return
	}
	if seq == w.contig+1 {
		w.contig++
		for {
			if _, ok := w.over[w.contig+1]; !ok {
				break
			}
			w.contig++
			delete(w.over, w.contig)
		}
		return
	}
	if w.over == nil {
		w.over = make(map[uint64]struct{})
	}
	w.over[seq] = struct{}{}
}

// entryHeap orders entries by (deadline, src, seq) — a total order, so
// expiry processing is deterministic regardless of map iteration.
type entryHeap []*Entry

func (h entryHeap) Len() int { return len(h) }
func (h entryHeap) Less(i, j int) bool {
	a, b := h[i], h[j]
	if a.deadline != b.deadline {
		return a.deadline < b.deadline
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}
func (h entryHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *entryHeap) Push(x any)   { *h = append(*h, x.(*Entry)) }
func (h *entryHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}
