package wire

import (
	"bytes"
	"errors"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"infobus/internal/mop"
)

// TestDecodedStringsShareABlock: value strings are carved from a shared
// block, yet each is immutable and shares no byte with the message it came
// from. The alloc half is a gate (scripts/check.sh) and fails where every
// string is an allocation of its own; the concurrent half runs in the race
// tier.
func TestDecodedStringsShareABlock(t *testing.T) {
	// A Story (twelve strings, every one short enough to share a block) and
	// a 200-byte string, which is allocated on its own.
	long := strings.Repeat("0123456789", 20)
	src := mop.List{benchStory(), long}
	want := eachString(src)
	msg := marshalLegacy(t, src)

	t.Run("private", func(t *testing.T) {
		in, vb := bytes.Clone(msg), new(valueBlock)
		v, err := unmarshal(in, mop.NewRegistry(), nil, vb)
		if err != nil {
			t.Fatal(err)
		}
		checkCarved(t, v, in, vb)
		if got := eachString(v); !slices.Equal(got, want) {
			t.Fatalf("strings after the input was overwritten: %q, want %q", got, want)
		}
	})

	t.Run("allocs", func(t *testing.T) {
		if raceEnabled {
			t.Skip("race-detector instrumentation allocates and sync.Pool drops blocks; the budget is pinned by the non-race run in scripts/check.sh")
		}
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		story := marshalLegacy(t, benchStory())
		if _, err := UnmarshalWith(story, reg, cache); err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, err := UnmarshalWith(story, reg, cache); err != nil {
				t.Fatal(err)
			}
		})
		if got > 2 {
			t.Errorf("a warm Story decode allocates %.0f times, budget 2 (its block and its Source's: no string, []byte or list costs a box, its bytes or an array)", got)
		}

		// 1 000 decodes of one 8-byte string: a block per 1 KB of strings
		// and a header chunk per strChunk strings and per block, in all.
		const n, word = 1000, "keyword7"
		one := marshalLegacy(t, word)
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var before, after runtime.MemStats
		runtime.GC() // a collection's own allocations land in the window less often
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			if v, err := UnmarshalWith(one, reg, cache); err != nil || v != word {
				t.Fatalf("decode %d: %v, %v", i, v, err)
			}
		}
		runtime.ReadMemStats(&after)
		got = float64(after.Mallocs - before.Mallocs)
		blocks := n*len(word)/strBlockSize + 1
		if limit := 2*blocks + n/strChunk + 4; got > float64(limit) {
			t.Errorf("%d decodes of an %d-byte string made %.0f allocations, want at most %d",
				n, len(word), got, limit)
		}
	})

	t.Run("concurrent", func(t *testing.T) {
		reg, cache := mop.NewRegistry(), NewTypeCache(0)
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				var kept []mop.Value
				for i := 0; i < 200; i++ {
					v, err := UnmarshalWith(msg, reg, cache)
					if err != nil {
						t.Error(err)
						return
					}
					kept = append(kept, v)
				}
				for _, v := range kept {
					if got := eachString(v); !slices.Equal(got, want) {
						t.Errorf("a kept value's strings read %q, want %q", got, want)
						return
					}
				}
			}()
		}
		wg.Wait()
	})
}

// TestCountsPreallocateInProportionToPayload: a count the decoder reads is
// a claim the bytes after it have not yet backed, so the room it reserves
// ahead of the items is bounded by what is left of the message, over all
// counts of one decode together: what a failing decode allocates is
// O(payload), here at most 1 KB and 32 B per payload byte. When every list
// reserved up to 4 096 elements, 999 nested lists made a 3 001-byte message
// cost its receiver 65 MB.
func TestCountsPreallocateInProportionToPayload(t *testing.T) {
	nested := []byte{Magic0, Magic1, Version, 0}
	for i := 0; i < 999; i++ {
		nested = append(nested, tagList, 0x80, 0x20) // uvarint 4096
	}
	if len(nested) != 3001 {
		t.Fatalf("payload is %d bytes", len(nested))
	}
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"999 nested lists of 4096", nested},
		{"a type table of 1M classes", []byte{Magic0, Magic1, Version, 0x80, 0x80, 0x40, 1}},
		{"a compact table of 65536 defs", []byte{Magic0, Magic1, VersionCompact, 0x80, 0x80, 0x04, 0, 0, 0}},
		{"a compact table of 65536 refs", []byte{Magic0, Magic1, VersionCompact, 0, 0x80, 0x80, 0x04, 0, 0, 0}},
	} {
		var before, after runtime.MemStats
		runtime.GC() // a collection's own allocations land in the window less often
		runtime.ReadMemStats(&before)
		_, err := UnmarshalWith(tc.payload, mop.NewRegistry(), nil)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: %v, want ErrTruncated", tc.name, err)
		}
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %d B payload, %d B allocated", tc.name, len(tc.payload), got)
		if limit := uint64(1<<10 + 32*len(tc.payload)); got > limit {
			t.Errorf("%s: a %d-byte payload allocated %d B, want at most %d", tc.name, len(tc.payload), got, limit)
		}
	}
}
