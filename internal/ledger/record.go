package ledger

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Record types.
const (
	recMessage = 1
	recAck     = 2
)

// maxRecord bounds one record body so a corrupt length cannot provoke a
// huge allocation.
const maxRecord = 16 << 20

// ---------------------------------------------------------------------------
// Record format: u32 bodyLen | u32 crc(body) | body
// body: u8 type | uvarint id | [uvarint subjLen | subj | uvarint payloadLen | payload]
//
// The format is unchanged from the monolithic ledger: segments are plain
// concatenations of these records, so the record fuzzer and old log files
// both carry over.

type record struct {
	typ     byte
	id      uint64
	subject string
	payload []byte
}

var errTorn = errors.New("ledger: torn record")

// appendRecord encodes r onto dst. The group-commit path stages many
// records into one batch buffer this way, so encoding allocates nothing
// beyond the (amortised) buffer growth.
func appendRecord(dst []byte, r record) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, r.typ)
	dst = binary.AppendUvarint(dst, r.id)
	if r.typ == recMessage {
		dst = binary.AppendUvarint(dst, uint64(len(r.subject)))
		dst = append(dst, r.subject...)
		dst = binary.AppendUvarint(dst, uint64(len(r.payload)))
		dst = append(dst, r.payload...)
	}
	body := dst[start+8:]
	binary.BigEndian.PutUint32(dst[start:start+4], uint32(len(body)))
	binary.BigEndian.PutUint32(dst[start+4:start+8], crc32.ChecksumIEEE(body))
	return dst
}

func encodeRecord(r record) []byte {
	return appendRecord(nil, r)
}

// parseRecord decodes one record from the front of data, returning the
// bytes consumed. The payload is a view of data, capped at its length.
// errTorn means the data ends mid-record (a crashed append); other errors
// mean real corruption.
func parseRecord(data []byte) (record, int, error) {
	r, n, err := parseRaw(data)
	return record{typ: r.typ, id: r.id, subject: string(r.subject), payload: r.payload}, n, err
}

// rawRecord is a parsed record whose subject is still a view of the data,
// so a read-back that only checks it allocates nothing.
type rawRecord struct {
	typ              byte
	id               uint64
	subject, payload []byte
}

// parseRaw is parseRecord without the subject's copy: every check, the CRC
// included, is here.
func parseRaw(data []byte) (rawRecord, int, error) {
	if len(data) < 8 {
		return rawRecord{}, 0, errTorn
	}
	bodyLen := binary.BigEndian.Uint32(data[0:4])
	if bodyLen > maxRecord {
		return rawRecord{}, 0, fmt.Errorf("body of %d bytes: %w", bodyLen, ErrTooBig)
	}
	if len(data) < 8+int(bodyLen) {
		return rawRecord{}, 0, errTorn
	}
	body := data[8 : 8+bodyLen]
	if crc32.ChecksumIEEE(body) != binary.BigEndian.Uint32(data[4:8]) {
		return rawRecord{}, 0, fmt.Errorf("crc mismatch: %w", ErrCorrupt)
	}
	if len(body) < 1 {
		return rawRecord{}, 0, ErrCorrupt
	}
	r := rawRecord{typ: body[0]}
	pos := 1
	id, n := binary.Uvarint(body[pos:])
	if n <= 0 {
		return rawRecord{}, 0, ErrCorrupt
	}
	pos += n
	r.id = id
	switch r.typ {
	case recAck:
		if pos != len(body) {
			return rawRecord{}, 0, ErrCorrupt
		}
	case recMessage:
		slen, n := binary.Uvarint(body[pos:])
		if n <= 0 || slen > uint64(len(body)-pos-n) {
			return rawRecord{}, 0, ErrCorrupt
		}
		pos += n
		r.subject = body[pos : pos+int(slen)]
		pos += int(slen)
		plen, n := binary.Uvarint(body[pos:])
		if n <= 0 || pos+n+int(plen) != len(body) {
			return rawRecord{}, 0, ErrCorrupt
		}
		pos += n
		r.payload = body[pos:len(body):len(body)]
	default:
		return rawRecord{}, 0, fmt.Errorf("type %d: %w", r.typ, ErrCorrupt)
	}
	return r, 8 + int(bodyLen), nil
}
