package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"infobus/internal/mop"
)

// dataWord returns the data word of the interface v: for a value that does
// not fit the word, the address of its box.
func dataWord(v any) unsafe.Pointer {
	return (*[2]unsafe.Pointer)(unsafe.Pointer(&v))[1]
}

// carvedSample is one decoded value the decoder carves from its block.
type carvedSample struct {
	name string
	v    mop.Value // Go-boxed, as a caller builds it
	kind *mop.Type
}

func carvedSamples() []carvedSample {
	at := func(sec, nsec int64) time.Time { return time.Unix(sec, nsec).UTC() }
	return []carvedSample{
		{"int 256", int64(256), mop.Int},
		{"int 3735928559", int64(3735928559), mop.Int},
		{"int max", int64(math.MaxInt64), mop.Int},
		{"int -1", int64(-1), mop.Int},
		{"int min", int64(math.MinInt64), mop.Int},
		{"float 42.125", 42.125, mop.Float},
		{"float NaN", math.NaN(), mop.Float},
		{"float -0", math.Copysign(0, -1), mop.Float},
		{"float +Inf", math.Inf(1), mop.Float},
		{"float -Inf", math.Inf(-1), mop.Float},
		{"time", at(749571200, 500), mop.Time},
		{"time epoch", at(0, 0), mop.Time},
		{"time before epoch", at(-1_000_000_000, 1), mop.Time},
		{"string 1 B", "k", mop.String},
		{"string 8 B", "keyword7", mop.String},
		{"string 128 B", strings.Repeat("0123456789abcdef", 8), mop.String},
	}
}

// sameValue reports whether got is want, comparing floats by their bits so
// that a NaN and -0 count.
func sameValue(got, want mop.Value) bool {
	if w, ok := want.(float64); ok {
		g, ok := got.(float64)
		return ok && math.Float64bits(g) == math.Float64bits(w)
	}
	return got == want
}

// TestCarvedBoxIsAnOrdinaryValue: an int64, float64, time.Time or short
// string that the decoder carves from its block, with no box of its own,
// behaves as a value Go boxed itself, stays intact through garbage
// collections, and costs no allocation of its own. The alloc half is a gate
// in scripts/check.sh and fails where every value is boxed on its own; the
// gc half runs in the race tier, where checkptr is on.
func TestCarvedBoxIsAnOrdinaryValue(t *testing.T) {
	t.Run("kinds", func(t *testing.T) {
		for _, tc := range carvedSamples() {
			msg := marshalLegacy(t, tc.v)
			vb := new(valueBlock)
			v, err := unmarshal(bytes.Clone(msg), mop.NewRegistry(), nil, vb)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			var slot unsafe.Pointer
			switch tc.kind {
			case mop.Int, mop.Float:
				slot = unsafe.Pointer(&vb.words[len(vb.words)-1])
			case mop.Time:
				slot = unsafe.Pointer(&vb.times[len(vb.times)-1])
			case mop.String:
				slot = unsafe.Pointer(&vb.strs[len(vb.strs)-1])
			}
			if dataWord(v) != slot {
				t.Fatalf("%s: the decoded value is not in its chunk's last slot", tc.name)
			}

			switch x := v.(type) {
			case int64, float64, time.Time, string:
				if !sameValue(x, tc.v) {
					t.Errorf("%s: type switch gives %v", tc.name, x)
				}
			default:
				t.Errorf("%s: type switch gives %T", tc.name, x)
			}
			if (v == tc.v) != (tc.v == tc.v) || !sameValue(v, tc.v) {
				t.Errorf("%s: decoded %v, == %v is %t", tc.name, v, tc.v, v == tc.v)
			}
			if tc.v == tc.v {
				if m := map[any]int{tc.v: 1}; m[v] != 1 {
					t.Errorf("%s: the decoded value does not find its Go-boxed equal as a map key", tc.name)
				}
			}
			if got, want := reflect.TypeOf(v), reflect.TypeOf(tc.v); got != want {
				t.Errorf("%s: reflect.TypeOf %v, want %v", tc.name, got, want)
			}
			if got, want := fmt.Sprint(v), fmt.Sprint(tc.v); got != want {
				t.Errorf("%s: fmt.Sprint %q, want %q", tc.name, got, want)
			}
			if err := mop.CheckValue(tc.kind, v); err != nil {
				t.Errorf("%s: CheckValue(%s): %v", tc.name, tc.kind.Name(), err)
			}
			if err := mop.CheckValue(mop.Any, v); err != nil {
				t.Errorf("%s: CheckValue(any): %v", tc.name, err)
			}
			if got, want := mop.EqualValues(v, tc.v), mop.EqualValues(tc.v, tc.v); got != want {
				t.Errorf("%s: EqualValues with its Go-boxed equal %t, want %t", tc.name, got, want)
			}
			if c := mop.CloneValue(v); !sameValue(c, tc.v) {
				t.Errorf("%s: CloneValue gives %v", tc.name, c)
			}
			if enc := marshalLegacy(t, v); !bytes.Equal(enc, msg) {
				t.Errorf("%s: re-marshals to %x, want %x", tc.name, enc, msg)
			}
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race-detector instrumentation allocates and sync.Pool drops blocks; the budget is pinned by the non-race run in scripts/check.sh")
		}
		// n decodes of one value: a chunk per chunk's worth of values, a
		// string block per 1 KB of strings, and slack for a block the pool
		// lost to a collection.
		const n = 1000
		limit := func(s carvedSample) int {
			switch s.kind {
			case mop.Int, mop.Float:
				return n/wordChunk + 8
			case mop.Time:
				return n/timeChunk + 8
			default:
				perBlock := strBlockSize / len(s.v.(string))
				blocks := n / perBlock
				return blocks + max(n/strChunk, blocks) + 8
			}
		}
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, tc := range carvedSamples() {
			msg := marshalLegacy(t, tc.v)
			if _, err := UnmarshalWith(msg, reg, cache); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < n; i++ {
				if _, err := UnmarshalWith(msg, reg, cache); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			got := int(after.Mallocs - before.Mallocs)
			t.Logf("%s: %d decodes, %d allocations", tc.name, n, got)
			if got > limit(tc) {
				t.Errorf("%s: %d decodes made %d allocations, want at most %d", tc.name, n, got, limit(tc))
			}
		}
	})

	t.Run("gc", func(t *testing.T) {
		// Every decode carves a distinct int, float, time and three strings;
		// one in a hundred is kept, value by value, and the rest dropped, so
		// the chunks the kept values sit in are held by those values alone.
		value := func(i int) mop.List {
			s := fmt.Sprintf("%07d", i)
			return mop.List{
				int64(-1000 - 7919*i),
				float64(i) + 0.5,
				time.Unix(int64(i)*977, int64(i)).UTC(),
				s[len(s)-1:],
				"key" + s[2:],
				strings.Repeat(s, 19)[:128],
			}
		}
		const decodes, keepEvery = 20000, 100
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		kept := make(map[int]mop.List)
		for i := 0; i < decodes; i++ {
			v, err := UnmarshalWith(marshalLegacy(t, value(i)), reg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if i%keepEvery == 0 {
				kept[i] = append(mop.List(nil), v.(mop.List)...)
			}
		}
		for round := 0; round < 3; round++ {
			runtime.GC()
			// Churn: fill what the collection freed with chunks of other bits.
			var sink []any
			for j := 0; j < 1000; j++ {
				words, strs, times := make([]uint64, wordChunk), make([]string, strChunk), make([]time.Time, timeChunk)
				for k := range words {
					words[k] = 0xDEADBEEF_00000000 | uint64(j)
				}
				for k := range strs {
					strs[k] = strings.Repeat("#", strBlockSize)[:k+1]
				}
				for k := range times {
					times[k] = time.Unix(int64(j), int64(k)).UTC()
				}
				sink = append(sink, words, strs, times)
			}
			runtime.KeepAlive(sink)
		}
		for i, got := range kept {
			for j, want := range value(i) {
				if !sameValue(got[j], want) {
					t.Fatalf("decode %d value %d reads %v after three collections, want %v", i, j, got[j], want)
				}
			}
		}
	})
}

// TestCarvedValueRetention: a carved value pins its chunk, never the
// datagram it was decoded from, and a short string's header chunk never
// holds strings of two blocks, so a kept string pins one block.
func TestCarvedValueRetention(t *testing.T) {
	t.Run("datagram", func(t *testing.T) {
		want := mop.List{int64(4711), time.Unix(749571200, 500).UTC(), "keyword7"}
		msg := marshalLegacy(t, append(want[:len(want):len(want)], []byte("a view of the datagram")))
		freed := make(chan struct{})
		kept := func() mop.List {
			datagram := bytes.Clone(msg)
			runtime.SetFinalizer(&datagram[0], func(*byte) { close(freed) })
			v, err := UnmarshalWith(datagram, mop.NewRegistry(), nil)
			if err != nil {
				t.Fatal(err)
			}
			return append(mop.List(nil), v.(mop.List)[:len(want)]...)
		}()
		deadline := time.Now().Add(5 * time.Second)
	wait:
		for {
			runtime.GC()
			select {
			case <-freed:
				break wait
			default:
			}
			if time.Now().After(deadline) {
				t.Fatal("the datagram is still reachable through the values kept from it")
			}
			time.Sleep(time.Millisecond)
		}
		for i := range want {
			if !sameValue(kept[i], want[i]) {
				t.Errorf("kept value %d reads %v after its datagram was freed, want %v", i, kept[i], want[i])
			}
		}
	})

	t.Run("header chunk", func(t *testing.T) {
		vb := new(valueBlock)
		view := []byte(strings.Repeat("x", strMaxShared))
		blockOf := make(map[*string]*byte)
		for i := 0; i < 5000; i++ {
			n := 1 + i*37%strMaxShared
			s := vb.string(view[:n]).(string)
			chunk, block := unsafe.SliceData(vb.strs), unsafe.StringData(vb.b.String())
			if b, ok := blockOf[chunk]; ok && b != block {
				t.Fatalf("string %d: its header chunk holds strings of two blocks", i)
			}
			blockOf[chunk] = block
			lo := uintptr(unsafe.Pointer(block))
			if p := uintptr(unsafe.Pointer(unsafe.StringData(s))); p < lo || p+uintptr(n) > lo+strBlockSize {
				t.Fatalf("string %d does not lie in its header chunk's block", i)
			}
		}
		if len(blockOf) < 2 {
			t.Fatalf("%d header chunks: the run never renewed one", len(blockOf))
		}
	})
}
