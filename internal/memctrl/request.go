package memctrl

import (
	"dramstacks/internal/dram"
	"dramstacks/internal/stacks"
)

// Request is one cache-line-sized memory operation presented to the
// controller by the cache hierarchy (an LLC miss or a dirty writeback).
type Request struct {
	// Addr is the physical byte address (line aligned by the caller).
	Addr uint64
	// Write marks a DRAM write (dirty writeback); otherwise a read.
	Write bool
	// OnComplete, if non-nil, is invoked once with the completion cycle:
	// for reads when the data has traversed the controller pipeline, for
	// writes when the write command has issued.
	OnComplete func(r *Request, at int64)

	// Meta is free for the caller (e.g. the requesting core id).
	Meta any

	loc    dram.Loc
	bank   int // channel-local flat bank index of loc
	arrive int64
	src    int // request source (core index), or stacks.SourceShared

	// Intrusive reqList links while queued: link[inQueue] threads the
	// controller's read or write queue, link[inBank] the queue of the
	// request's bank.
	link [2]struct{ next, prev *Request }

	// Latency bookkeeping (reads).
	ownPre    int64 // precharge cycles this request itself incurred
	ownAct    int64 // activate cycles this request itself incurred
	refSnap   int64 // cumRefresh at arrival
	drainSnap int64 // cumDrainOnly at arrival
	regSnap   int64 // source's cumReg at arrival (QoS regulation)
	forwarded bool
	lat       stacks.ReadLatency
}

// Latency returns the read's latency decomposition (valid inside and
// after the OnComplete callback; zero for forwarded reads and writes).
func (r *Request) Latency() stacks.ReadLatency { return r.lat }

// QueueFraction returns the share of the read's latency that was
// queueing-related (queue + write burst + refresh): the part the cycle
// stacks report as dram-queue.
func (r *Request) QueueFraction() float64 {
	if r.lat.Total == 0 {
		return 0
	}
	q := r.lat.Components[stacks.LatQueue] +
		r.lat.Components[stacks.LatWriteBurst] +
		r.lat.Components[stacks.LatRefresh]
	return q / float64(r.lat.Total)
}

// RegFraction returns the share of the read's latency spent held by QoS
// bandwidth regulation: the part the cycle stacks report as
// dram-regulated. Exactly 0 without a QoS policy.
func (r *Request) RegFraction() float64 {
	if r.lat.Total == 0 {
		return 0
	}
	return r.lat.Components[stacks.LatRegulated] / float64(r.lat.Total)
}

// Source returns the request's source identity (core index), or
// stacks.SourceShared for unattributed requests.
func (r *Request) Source() int { return r.src }

// Arrive returns the memory cycle the request entered the controller.
func (r *Request) Arrive() int64 { return r.arrive }

// Loc returns the DRAM coordinates the request was mapped to.
func (r *Request) Loc() dram.Loc { return r.loc }

// Forwarded reports whether a read was served from the write buffer
// instead of DRAM.
func (r *Request) Forwarded() bool { return r.forwarded }

// Which Request.link a reqList threads.
const (
	inQueue = iota
	inBank
)

// reqList is an arrival-ordered queue of requests, linked through the
// requests themselves so that queueing allocates nothing and the
// scheduler can remove its pick from the middle in O(1).
type reqList struct {
	head, tail *Request
	n          int
}

func (l *reqList) pushBack(r *Request, k int) {
	r.link[k].prev, r.link[k].next = l.tail, nil
	if l.tail != nil {
		l.tail.link[k].next = r
	} else {
		l.head = r
	}
	l.tail = r
	l.n++
}

func (l *reqList) remove(r *Request, k int) {
	ln := &r.link[k]
	if ln.prev != nil {
		ln.prev.link[k].next = ln.next
	} else {
		l.head = ln.next
	}
	if ln.next != nil {
		ln.next.link[k].prev = ln.prev
	} else {
		l.tail = ln.prev
	}
	ln.next, ln.prev = nil, nil
	l.n--
}
