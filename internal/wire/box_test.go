package wire

import (
	"bytes"
	"fmt"
	"hash/crc32"
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

// carvedSample is one decoded value the decoder carves from its block, or,
// when holder is set, decodes as the one attribute of an object of a class
// of that name, whose header cell holds it.
type carvedSample struct {
	name   string
	v      mop.Value // Go-boxed, as a caller builds it
	kind   *mop.Type
	holder string
	// allocs is what a decode allocates for the sample on its own, chunks
	// and blocks aside: the holder's block, and for a list that is not
	// carved its array and a box per []byte or list element, and a long
	// string's bytes and box.
	allocs int
}

func carvedSamples() []carvedSample {
	at := func(sec, nsec int64) time.Time { return time.Unix(sec, nsec).UTC() }
	words := func(n int) mop.List {
		l := make(mop.List, n)
		for i := range l {
			l[i] = fmt.Sprintf("keyword%d", i)
		}
		return l
	}
	strs, anys := mop.ListOf(mop.String), mop.ListOf(mop.Any)
	return []carvedSample{
		{"int 256", int64(256), mop.Int, "", 0},
		{"int 3735928559", int64(3735928559), mop.Int, "", 0},
		{"int max", int64(math.MaxInt64), mop.Int, "", 0},
		{"int -1", int64(-1), mop.Int, "", 0},
		{"int min", int64(math.MinInt64), mop.Int, "", 0},
		{"float 42.125", 42.125, mop.Float, "", 0},
		{"float NaN", math.NaN(), mop.Float, "", 0},
		{"float -0", math.Copysign(0, -1), mop.Float, "", 0},
		{"float +Inf", math.Inf(1), mop.Float, "", 0},
		{"float -Inf", math.Inf(-1), mop.Float, "", 0},
		{"time", at(749571200, 500), mop.Time, "", 0},
		{"time epoch", at(0, 0), mop.Time, "", 0},
		{"time before epoch", at(-1_000_000_000, 1), mop.Time, "", 0},
		{"string 1 B", "k", mop.String, "", 0},
		{"string 8 B", "keyword7", mop.String, "", 0},
		{"string 128 B", strings.Repeat("0123456789abcdef", 8), mop.String, "", 0},
		{"bytes 104 B", bytes.Repeat([]byte{0xA5, 0x5A, 0}, 35)[:104], mop.Bytes, "BytesHolder", 1},
		{"bytes 8 KB", bytes.Repeat([]byte("body of the story "), 456)[:8192], mop.Bytes, "BytesHolder", 1},
		{"bytes empty", []byte{}, mop.Bytes, "BytesHolder", 1},
		{"list empty", mop.List{}, strs, "StringsHolder", 1},
		{"list of 8 strings", words(8), strs, "StringsHolder", 1},
		{"list of listChunk strings", words(listChunk), strs, "StringsHolder", 1},
		{"list of listChunk+1 strings", words(listChunk + 1), strs, "StringsHolder", 2},
		{"list of scalars", mop.List{int64(7), int64(4711), 2.5, math.Inf(-1), true, at(749571200, 1), "", "s",
			strings.Repeat("x", strMaxShared)}, anys, "AnyListHolder", 1},
		{"list with a long string", mop.List{"s", strings.Repeat("x", strMaxShared+1)}, anys, "AnyListHolder", 4},
		{"list with bytes", mop.List{"s", []byte("a view")}, anys, "AnyListHolder", 3},
		{"list with a list", mop.List{"s", mop.List{"t"}}, anys, "AnyListHolder", 3},
	}
}

// message returns the sample's encoding: the value itself, or a holder
// object with the value as its one attribute.
func (s carvedSample) message(t *testing.T) []byte {
	if s.holder == "" {
		return marshalLegacy(t, s.v)
	}
	holder := mop.MustNewClass(s.holder, nil, []mop.Attr{{Name: "v", Type: s.kind}}, nil)
	return marshalLegacy(t, mop.MustNew(holder).MustSet("v", s.v))
}

// carvedList reports whether the decoder gives list l an array in its
// element chunk: 1 to listChunk bools, ints, floats, times and strings of
// at most strMaxShared bytes.
func carvedList(l mop.List) bool {
	if len(l) == 0 || len(l) > listChunk {
		return false
	}
	for _, e := range l {
		switch e := e.(type) {
		case bool, int64, float64, time.Time:
		case string:
			if len(e) > strMaxShared {
				return false
			}
		default:
			return false
		}
	}
	return true
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
// string that the decoder carves from its block, and a []byte or List that
// it stores in its object's header cell, with no box of its own, behaves as
// a value Go boxed itself, stays intact through garbage collections, and
// costs no allocation of its own; a list of scalars takes its array from
// the element chunk, a list holding anything else does not. The alloc half
// is a gate in scripts/check.sh and fails where every value is boxed on its
// own; the gc half, which also keeps the body and keywords of decoded
// Stories without the Stories, runs in the race tier, where checkptr is on.
func TestCarvedBoxIsAnOrdinaryValue(t *testing.T) {
	t.Run("kinds", func(t *testing.T) {
		for _, tc := range carvedSamples() {
			msg := tc.message(t)
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
			default:
				// The holder's one cell follows its header and one slot.
				o := v.(*mop.Object)
				v = o.GetAt(0)
				slot = unsafe.Add(unsafe.Pointer(o), unsafe.Sizeof(mop.Object{})+unsafe.Sizeof(v))
			}
			if dataWord(v) != slot {
				t.Fatalf("%s: the decoded value is not in its chunk's last slot or its object's cell", tc.name)
			}
			if l, ok := v.(mop.List); ok && len(l) > 0 {
				inChunk := len(vb.elems) >= len(l) && unsafe.SliceData(l) == &vb.elems[len(vb.elems)-len(l)]
				if want := carvedList(l); inChunk != want {
					t.Errorf("%s: the list's array is in the element chunk: %t, want %t", tc.name, inChunk, want)
				}
				if cap(l) != len(l) {
					t.Errorf("%s: the list has cap %d > len %d: an append would write past it", tc.name, cap(l), len(l))
				}
			}

			switch x := v.(type) {
			case int64, float64, time.Time, string:
				if !sameValue(x, tc.v) {
					t.Errorf("%s: type switch gives %v", tc.name, x)
				}
			case []byte, mop.List:
				if !mop.EqualValues(x, tc.v) {
					t.Errorf("%s: type switch gives %v", tc.name, x)
				}
			default:
				t.Errorf("%s: type switch gives %T", tc.name, x)
			}
			if tc.holder == "" { // a []byte or List is not comparable
				if (v == tc.v) != (tc.v == tc.v) || !sameValue(v, tc.v) {
					t.Errorf("%s: decoded %v, == %v is %t", tc.name, v, tc.v, v == tc.v)
				}
				if tc.v == tc.v {
					if m := map[any]int{tc.v: 1}; m[v] != 1 {
						t.Errorf("%s: the decoded value does not find its Go-boxed equal as a map key", tc.name)
					}
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
			if c := mop.CloneValue(v); tc.holder == "" && !sameValue(c, tc.v) || tc.holder != "" && !mop.EqualValues(c, tc.v) {
				t.Errorf("%s: CloneValue gives %v", tc.name, c)
			}
			if enc, want := marshalLegacy(t, v), marshalLegacy(t, tc.v); !bytes.Equal(enc, want) {
				t.Errorf("%s: re-marshals to %x, want %x", tc.name, enc, want)
			}
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race-detector instrumentation allocates and sync.Pool drops blocks; the budget is pinned by the non-race run in scripts/check.sh")
		}
		// n decodes of one value: what the sample allocates on its own per
		// decode, a chunk per chunk's worth of values, a string block per
		// 1 KB of strings, and slack for a block the pool lost to a
		// collection.
		const n = 1000
		limit := func(s carvedSample) int {
			var strBytes, strs, words, times, elems int
			eachLeaf(s.v, func(x mop.Value) {
				switch x := x.(type) {
				case string:
					if len(x) > 0 && len(x) <= strMaxShared {
						strs, strBytes = strs+1, strBytes+len(x)
					}
				case int64:
					if uint64(x) >= 256 {
						words++
					}
				case float64:
					if math.Float64bits(x) >= 256 {
						words++
					}
				case time.Time:
					times++
				}
			})
			var carved func(v mop.Value)
			carved = func(v mop.Value) {
				if l, ok := v.(mop.List); ok {
					if carvedList(l) {
						elems += len(l)
					}
					for _, e := range l {
						carved(e)
					}
				}
			}
			carved(s.v)
			lists := 0
			if elems > 0 { // a decode's lists take at most one chunk: never split
				lists = n / (listChunk / elems)
			}
			// A header chunk starts afresh with each string block. One
			// string a decode fills blocks and header chunks in step, so
			// whichever runs out first sets the count; strings of mixed
			// lengths may start a block mid-chunk, a chunk more per block.
			blocks := n * strBytes / strBlockSize
			headers := max(n*strs/strChunk, blocks)
			if s.holder != "" {
				headers = n*strs/strChunk + blocks
			}
			return n*s.allocs + blocks + headers + n*words/wordChunk + n*times/timeChunk + lists + 8
		}
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		for _, tc := range carvedSamples() {
			msg := tc.message(t)
			if _, err := UnmarshalWith(msg, reg, cache); err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.GC() // a collection's own allocations land in the window less often
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

		// Stories: the body and keywords of one in 50 are kept as the
		// interfaces the decoded object holds, whose data words are the
		// object's cells, and the object is dropped; the body is a view of
		// its datagram, the keywords' array is in an element chunk.
		const stories, keepStory = 10000, 50
		story := benchStory()
		sums := func(body, keywords mop.Value) [2]uint32 {
			return [2]uint32{crc32.ChecksumIEEE(body.([]byte)),
				crc32.ChecksumIEEE([]byte(fmt.Sprint(keywords.(mop.List)...)))}
		}
		type keptStory struct {
			body, keywords mop.Value
			want           [2]uint32
		}
		var keptStories []keptStory
		for i := 0; i < stories; i++ {
			o := story.Clone()
			keywords := make(mop.List, 8)
			for j := range keywords {
				keywords[j] = fmt.Sprintf("kw%d-%d", j, i)
			}
			o.MustSet("body", bytes.Repeat([]byte(fmt.Sprintf("%07d ", i)), 1024)).MustSet("keywords", keywords)
			v, err := UnmarshalWith(marshalLegacy(t, o), reg, cache)
			if err != nil {
				t.Fatal(err)
			}
			if i%keepStory == 0 {
				d := v.(*mop.Object)
				body, kw := d.MustGet("body"), d.MustGet("keywords")
				keptStories = append(keptStories, keptStory{body, kw, sums(o.MustGet("body"), keywords)})
			}
		}
		for round := 0; round < 2; round++ {
			runtime.GC()
			var sink []any
			for j := 0; j < 200; j++ {
				junk := make(mop.List, listChunk)
				for k := range junk {
					junk[k] = strings.Repeat("#", k+1)
				}
				sink = append(sink, junk, bytes.Repeat([]byte{0xEE}, 8704), make([]uint64, 24))
			}
			runtime.KeepAlive(sink)
		}
		for i, k := range keptStories {
			if got := sums(k.body, k.keywords); got != k.want {
				t.Fatalf("story %d: body and keywords sum to %x after two collections, want %x", i*keepStory, got, k.want)
			}
		}
	})
}

// decodeWatched decodes a private copy of msg, the datagram, and returns
// the value and a channel closed once the datagram is collected.
func decodeWatched(t *testing.T, msg []byte) (mop.Value, <-chan struct{}) {
	t.Helper()
	freed := make(chan struct{})
	datagram := bytes.Clone(msg)
	runtime.SetFinalizer(&datagram[0], func(*byte) { close(freed) })
	v, err := UnmarshalWith(datagram, mop.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return v, freed
}

// waitFreed collects until freed is closed, failing after 5 s.
func waitFreed(t *testing.T, freed <-chan struct{}, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-freed:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("the datagram is still reachable through %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCarvedValueRetention: a carved value pins its chunk, never the
// datagram it was decoded from, and a short string's header chunk never
// holds strings of two blocks, so a kept string pins one block. A kept List
// attribute value pins its object's block, whose Bytes cells are views of
// the datagram, until it is dropped or cloned.
func TestCarvedValueRetention(t *testing.T) {
	t.Run("datagram", func(t *testing.T) {
		want := mop.List{int64(4711), time.Unix(749571200, 500).UTC(), "keyword7"}
		v, freed := decodeWatched(t, marshalLegacy(t, append(want[:len(want):len(want)], []byte("a view of the datagram"))))
		kept := append(mop.List(nil), v.(mop.List)[:len(want)]...)
		v = nil
		waitFreed(t, freed, "the values kept from it")
		for i := range want {
			if !sameValue(kept[i], want[i]) {
				t.Errorf("kept value %d reads %v after its datagram was freed, want %v", i, kept[i], want[i])
			}
		}
	})

	t.Run("list attribute", func(t *testing.T) {
		page := mop.MustNewClass("Page", nil, []mop.Attr{
			{Name: "body", Type: mop.Bytes},
			{Name: "keywords", Type: mop.ListOf(mop.String)},
		}, nil)
		want := mop.List{"alpha", "beta"}
		msg := marshalLegacy(t, mop.MustNew(page).MustSet("body", bytes.Repeat([]byte("body "), 200)).MustSet("keywords", want))
		v, freed := decodeWatched(t, msg)
		kept := v.(*mop.Object).MustGet("keywords")
		v = nil
		for i := 0; i < 3; i++ {
			runtime.GC()
		}
		select {
		case <-freed:
			t.Fatal("the datagram was collected while the List attribute value, which pins its object's block, was kept")
		default:
		}
		clone := mop.CloneValue(kept)
		kept = nil
		waitFreed(t, freed, "a clone of the List attribute value")
		if !mop.EqualValues(clone, want) {
			t.Errorf("the clone reads %v after the datagram was freed, want %v", clone, want)
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
