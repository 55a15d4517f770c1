package daemon

import (
	"errors"
	"fmt"
	"slices"
	"testing"

	"infobus/internal/busproto"
)

// sentAck is one frame an ackSet sent.
type sentAck struct {
	to     string
	origin string
	ids    []uint64
}

// ackRecorder is an ackSet's conn: it decodes what is sent, or refuses it.
type ackRecorder struct {
	t       *testing.T
	refuse  bool
	sent    []sentAck
	dropped int
}

func (r *ackRecorder) set() ackSet {
	return newAckSet(func(to string, frame []byte) error {
		if r.refuse {
			return errors.New("window full")
		}
		e, err := busproto.Decode(frame)
		if err != nil {
			r.t.Fatalf("sent % x: %v", frame, err)
		}
		ids := e.Acked
		if ids == nil {
			ids = []uint64{e.ID}
		}
		if again := busproto.AppendAck(nil, e.Origin, ids); string(again) != string(frame) {
			r.t.Fatalf("sent % x, the one encoding of %v is % x", frame, ids, again)
		}
		r.sent = append(r.sent, sentAck{to, e.Origin, ids})
		return nil
	}, func() { r.dropped++ })
}

// TestAckSetSortsAndMerges: ids recorded out of order, repeated and for two
// origins go out as one frame per (sender, origin), sorted, merged into runs
// and each named once; a flush with nothing recorded sends nothing.
func TestAckSetSortsAndMerges(t *testing.T) {
	r := &ackRecorder{t: t}
	a := r.set()
	for _, id := range []uint64{9, 3, 4, 3, 12, 5, 11, 9, 1} {
		a.add("pub", "o1", id)
	}
	for _, id := range []uint64{2, 2, 1} {
		a.add("pub", "o2", id)
	}
	a.add("replayer", "o1", 7)
	a.flush()
	want := []sentAck{
		{"pub", "o1", []uint64{1, 3, 4, 5, 9, 11, 12}},
		{"pub", "o2", []uint64{1, 2}},
		{"replayer", "o1", []uint64{7}},
	}
	if !slices.EqualFunc(r.sent, want, sameAck) {
		t.Fatalf("sent %v, want %v", r.sent, want)
	}
	a.flush()
	a.add("pub", "o1", 13)
	a.flush()
	if want = append(want, sentAck{"pub", "o1", []uint64{13}}); !slices.EqualFunc(r.sent, want, sameAck) {
		t.Fatalf("sent %v, want %v", r.sent, want)
	}
}

func sameAck(a, b sentAck) bool {
	return a.to == b.to && a.origin == b.origin && slices.Equal(a.ids, b.ids)
}

// TestAckSetBounds: a set that reaches ackFlushIDs goes out without waiting
// for the lane to drain; one the conn refuses is kept up to MaxAckIDs ids,
// past which new ids are discarded and counted (repeats are not), and the
// next flush that is taken sends all it kept. Sets that hold nothing are
// forgotten at maxAckKeys.
func TestAckSetBounds(t *testing.T) {
	r := &ackRecorder{t: t}
	a := r.set()
	for id := uint64(0); id < ackFlushIDs; id++ {
		a.add("pub", "o", id)
	}
	if len(r.sent) != 1 || len(r.sent[0].ids) != ackFlushIDs {
		t.Fatalf("after %d ids: %d frames sent", ackFlushIDs, len(r.sent))
	}
	r.sent, r.refuse = nil, true
	const extra = 5
	for id := uint64(0); id < busproto.MaxAckIDs+extra; id++ {
		a.add("pub", "o", 2*id)
	}
	a.add("pub", "o", 0) // a repeat at the bound
	a.flush()
	if len(r.sent) != 0 || r.dropped != extra {
		t.Fatalf("refused: %d frames sent, %d ids dropped, want 0 and %d", len(r.sent), r.dropped, extra)
	}
	r.refuse = false
	a.flush()
	if len(r.sent) != 1 || len(r.sent[0].ids) != busproto.MaxAckIDs || r.sent[0].ids[0] != 0 {
		t.Fatalf("after the window freed: %d frames", len(r.sent))
	}
	for i := 0; i < 2*maxAckKeys; i++ {
		a.add(fmt.Sprintf("pub%d", i), "o", 1)
		a.flush()
	}
	if len(a.sets) > maxAckKeys {
		t.Fatalf("%d (sender, origin) sets kept, bound %d", len(a.sets), maxAckKeys)
	}
}
