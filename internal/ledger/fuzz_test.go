package ledger

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseRecord: arbitrary bytes never panic the replay parser.
func FuzzParseRecord(f *testing.F) {
	f.Add(encodeRecord(record{typ: recMessage, id: 7, subject: "a.b", payload: []byte("x")}))
	f.Add(encodeRecord(record{typ: recAck, id: 9}))
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0, 1, 2, 3, 4})
	// A subject length past MaxInt64, under a valid CRC: as an int it is
	// negative.
	body := binary.AppendUvarint([]byte{recMessage, 1}, ^uint64(0))
	f.Add(append(binary.BigEndian.AppendUint32(binary.BigEndian.AppendUint32(nil, uint32(len(body))), crc32.ChecksumIEEE(body)), body...))
	f.Fuzz(func(t *testing.T, data []byte) {
		rec, n, err := parseRecord(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		re := encodeRecord(rec)
		rec2, _, err := parseRecord(re)
		if err != nil || rec2.id != rec.id || rec2.subject != rec.subject {
			t.Fatalf("round trip: %+v vs %+v (%v)", rec, rec2, err)
		}
	})
}

// FuzzSegmentedReplay: two arbitrary byte strings laid down as segment
// files never panic Open, and when Open accepts them the ledger stays
// usable (append, ack, reopen) — the segmented replay path must be as
// robust against garbage on disk as the record parser is.
func FuzzSegmentedReplay(f *testing.F) {
	var seg1, seg2 []byte
	seg1 = appendRecord(seg1, record{typ: recMessage, id: 0, subject: "a.b", payload: []byte("m0")})
	seg1 = appendRecord(seg1, record{typ: recMessage, id: 1, subject: "a.b", payload: []byte("m1")})
	seg2 = appendRecord(seg2, record{typ: recAck, id: 0})
	seg2 = appendRecord(seg2, record{typ: recMessage, id: 2, subject: "a.c", payload: []byte("m2")})
	f.Add(seg1, seg2)
	f.Add(seg1[:len(seg1)-3], []byte{})         // torn tail in the middle segment
	f.Add([]byte{}, seg2[:len(seg2)-1])         // torn tail in the newest segment
	f.Add([]byte{0, 0, 0, 4, 0, 0, 0, 0}, seg2) // bad crc up front
	// A carry: message 0 copied into the next segment, then still pending
	// or acked after the copy.
	carried := appendRecord(nil, record{typ: recMessage, id: 0, subject: "a.b", payload: []byte("m0")})
	f.Add(seg1, carried)
	f.Add(seg1, appendRecord(carried, record{typ: recAck, id: 0}))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		base := filepath.Join(t.TempDir(), "g.log")
		if err := os.WriteFile(segPath(base, 1), a, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(segPath(base, 2), b, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(base, Options{})
		if err != nil {
			return // rejected as corrupt: fine, as long as it didn't panic
		}
		before := l.Len()
		id, err := l.Append("f.z", []byte("post"))
		if err != nil {
			t.Fatalf("append after replay: %v", err)
		}
		if err := l.Ack(id); err != nil {
			t.Fatalf("ack after replay: %v", err)
		}
		if err := l.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		l2, err := Open(base, Options{})
		if err != nil {
			t.Fatalf("reopen after clean close: %v", err)
		}
		if l2.Len() != before {
			t.Fatalf("pending drifted across restart: %d -> %d", before, l2.Len())
		}
		_ = l2.Close()
	})
}
