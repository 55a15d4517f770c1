package main

import (
	"sync/atomic"

	"infobus"
	"infobus/internal/mop"
)

// failures counts every way a delivery can be wrong. The medium is
// lossless, so any non-zero count is a bug in the bus (or the benchmark)
// and fails the run.
type failures struct {
	publishErrs atomic.Uint64 // Publish / PublishGuaranteed returned an error
	missing     atomic.Uint64 // expected and not delivered when the drain timed out
	duplicate   atomic.Uint64 // the same sequence twice in a row
	outOfOrder  atomic.Uint64 // a sequence below the last one seen (late duplicate included)
	unwanted    atomic.Uint64 // a subject the subscription does not match, or the wrong subject for the sequence
	badChecksum atomic.Uint64 // content differs from what was published
	malformed   atomic.Uint64 // not a benchmark object at all
	unacked     atomic.Uint64 // guaranteed publications never acknowledged
}

func (f *failures) counters() map[string]*atomic.Uint64 {
	return map[string]*atomic.Uint64{
		"publish_errors": &f.publishErrs, "missing": &f.missing, "duplicate": &f.duplicate,
		"out_of_order": &f.outOfOrder, "unwanted": &f.unwanted, "bad_checksum": &f.badChecksum,
		"malformed": &f.malformed, "unacked": &f.unacked,
	}
}

func (f *failures) total() uint64 {
	var n uint64
	for _, c := range f.counters() {
		n += c.Load()
	}
	return n
}

// add folds another topology's failures into f.
func (f *failures) add(o *failures) {
	from := o.counters()
	for name, c := range f.counters() {
		c.Add(from[name].Load())
	}
}

// breakdown names the non-zero counters, for the results file.
func (f *failures) breakdown() map[string]uint64 {
	out := map[string]uint64{}
	for name, c := range f.counters() {
		if n := c.Load(); n > 0 {
			out[name] = n
		}
	}
	return out
}

// subOracle checks the deliveries of one subscription: per publisher the
// sequences must be strictly increasing, wanted by the pattern, on the
// subject they were published on, and carry the content that was generated
// for them. A strictly increasing run of wanted sequences whose length
// equals the number expected is exactly the expected set, once each, in
// order - which is how missing deliveries are found when a phase drains,
// without walking the gaps on the hot path.
type subOracle struct {
	in   *inputs
	sub  *subscription
	fail *failures
	last []int64      // per publisher; -1 before the first delivery
	got  atomic.Int64 // verified deliveries
}

func newSubOracle(in *inputs, sub *subscription, fail *failures) *subOracle {
	o := &subOracle{in: in, sub: sub, fail: fail, last: make([]int64, in.w.publishers)}
	for i := range o.last {
		o.last[i] = -1
	}
	return o
}

// check verifies one event and reports its publisher and sequence; ok is
// false when the event was counted as a failure. The caller counts a good
// event with verified once it has recorded everything about it: got is what
// a draining phase waits on.
func (o *subOracle) check(subj string, v mop.Value) (pub int, seq int64, ok bool) {
	obj, isObj := v.(*mop.Object)
	if !isObj || obj == nil || obj.Type().NumAttrs() <= slotContent {
		o.fail.malformed.Add(1)
		return 0, 0, false
	}
	p, ok1 := obj.GetAt(slotPub).(int64)
	seq, ok2 := obj.GetAt(slotSeq).(int64)
	sum, ok3 := obj.GetAt(slotSum).(int64)
	if !ok1 || !ok2 || !ok3 || p < 0 || int(p) >= len(o.last) || seq < 0 {
		o.fail.malformed.Add(1)
		return 0, 0, false
	}
	pub = int(p)
	switch {
	case seq == o.last[pub]:
		o.fail.duplicate.Add(1)
		return pub, seq, false
	case seq < o.last[pub]:
		o.fail.outOfOrder.Add(1)
		return pub, seq, false
	}
	o.last[pub] = seq
	idx := o.in.subjectOf(seq)
	if !o.sub.want[idx] || subj != o.in.subjects[idx] {
		o.fail.unwanted.Add(1)
		return pub, seq, false
	}
	want := o.in.sums[pub][seq%int64(len(o.in.sums[pub]))]
	if uint32(sum) != want || contentSum(obj) != want {
		o.fail.badChecksum.Add(1)
		return pub, seq, false
	}
	return pub, seq, true
}

func (o *subOracle) verified() { o.got.Add(1) }

// finish charges what never arrived: expected is the number of deliveries
// the subscription was due.
func (o *subOracle) finish(expected int64) {
	if d := expected - o.got.Load(); d > 0 {
		o.fail.missing.Add(uint64(d))
	}
}

// latSample is one paced-phase delivery: the message's position in the
// phase and its latency from the instant it was due.
type latSample struct {
	idx int32
	ns  int64
}

// consumer is the application goroutine behind one subscription.
type consumer struct {
	t      *topo
	oracle *subOracle
	lat    []latSample
}

func (c *consumer) run(sub *infobus.Subscription) {
	defer c.t.wg.Done()
	host := c.oracle.sub.host
	for ev := range sub.C {
		now := nanotime()
		pub, seq, ok := c.oracle.check(ev.Subject.String(), ev.Value)
		if !ok {
			continue
		}
		seen := &c.t.hostSeen[host][pub]
		for {
			cur := seen.Load()
			if seq <= cur || seen.CompareAndSwap(cur, seq) {
				break
			}
		}
		if ph := c.t.paced.Load(); ph != nil && seq >= ph.first && seq < ph.first+ph.perPub {
			i := seq - ph.first
			c.lat = append(c.lat, latSample{idx: int32(i), ns: now - ph.due(i)})
		}
		c.oracle.verified()
	}
}
