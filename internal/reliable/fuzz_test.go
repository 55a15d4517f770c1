package reliable

import (
	"bytes"
	"testing"
)

// FuzzDecodeFrame: decodeFrameInto is the first parser every datagram meets.
// Arbitrary bytes never panic it; an accepted data frame holds no message
// longer than its input (payloads alias the datagram) and no sequence below 1,
// the first any stream numbers; and every accepted frame survives its own
// encoding: decode(encode(f)) == f. It seeds from the wire corpus too.
func FuzzDecodeFrame(f *testing.F) {
	data := encodeData(dataFrame{typ: frameData, epoch: 7, msgs: []msg{{seq: 1, payload: []byte("x")}}})
	f.Add(data)
	f.Add(data[:len(data)-1])
	f.Add(append(append([]byte(nil), data...), 0xEE))
	f.Add(encodeData(dataFrame{typ: frameUData, epoch: 9, msgs: []msg{
		{seq: 5, payload: []byte("first of a batch")}, {seq: 6, payload: nil}, {seq: 7, payload: []byte("third")}}}))
	f.Add(encodeNak(nakFrame{epoch: 3, from: 10, to: 12}))
	f.Add(encodeAck(ackFrame{epoch: 9, cum: 42}))
	f.Add(encodeHeart(heartFrame{epoch: 4, maxSeq: 77}))
	f.Add(encodeData(dataFrame{typ: frameData, epoch: 7, msgs: []msg{{seq: 0, payload: []byte("x")}}}))
	f.Add([]byte{99, 1, 2})
	// One message whose length, added to the read position, overflows an int.
	f.Add([]byte{frameData, 1, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f})
	f.Add([]byte{})
	addCorpusSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := decodeFrame(in)
		if err != nil {
			return
		}
		var again []byte
		switch got.typ {
		case frameData, frameUData:
			if got.data == nil || got.data.typ != got.typ {
				t.Fatalf("data frame without its data: %+v", got)
			}
			total := 0
			for _, m := range got.data.msgs {
				total += len(m.payload)
				if m.seq == 0 {
					t.Fatalf("data frame accepted with sequence 0: %+v", got.data)
				}
			}
			if total > len(in) || len(got.data.msgs) > len(in) {
				t.Fatalf("%d messages of %d bytes from a %d-byte datagram", len(got.data.msgs), total, len(in))
			}
			again = encodeData(*got.data)
		case frameNak:
			again = encodeNak(got.nak)
		case frameUAck:
			again = encodeAck(got.ack)
		case frameHeart:
			again = encodeHeart(got.heart)
		default:
			t.Fatalf("accepted frame of type %d", got.typ)
		}
		back, err := decodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoding of an accepted frame rejected: %v", err)
		}
		if back.typ != got.typ || back.nak != got.nak || back.ack != got.ack || back.heart != got.heart ||
			(got.data != nil) != (back.data != nil) {
			t.Fatalf("decode(encode(f)) = %+v, f = %+v", back, got)
		}
		if got.data != nil {
			if back.data.epoch != got.data.epoch || len(back.data.msgs) != len(got.data.msgs) {
				t.Fatalf("decode(encode(f)) = %+v, f = %+v", back.data, got.data)
			}
			for i, m := range got.data.msgs {
				if b := back.data.msgs[i]; b.seq != m.seq || !bytes.Equal(b.payload, m.payload) {
					t.Fatalf("message %d: %+v != %+v", i, b, m)
				}
			}
		}
	})
}
