package qledger

import (
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/netsim"
	"infobus/internal/transport"
)

// spawned counts, by the function that started them, the live goroutines
// the calling goroutine's calls created: other tests' hosts, still winding
// down, do not count.
func spawned() (by map[string]int, total int) {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n == len(buf) {
			buf = make([]byte, 2*len(buf))
			continue
		}
		stacks := string(buf[:n])
		self := " in goroutine " + strings.Fields(stacks)[1] + "\n" // the caller's trace comes first
		by = map[string]int{}
		for _, line := range strings.Split(stacks, "\n") {
			if creator, ok := strings.CutPrefix(line+"\n", "created by "); ok && strings.HasSuffix(creator, self) {
				by[strings.TrimSuffix(creator, self)]++
				total++
			}
		}
		return by, total
	}
}

// daemonClients reads how many clients the host's daemon holds.
func daemonClients(h *core.Host) int {
	return reflect.ValueOf(h.Daemon()).Elem().FieldByName("clients").Len()
}

// TestNoLoopOfItsOwn: the replication tier and its coordinator election are
// parts on the host's one loop, and a ledger commits on its callers'
// threads. A replicated host runs the goroutines and daemon clients of the
// same host unreplicated, however many origins its store holds; Close
// leaves none.
func TestNoLoopOfItsOwn(t *testing.T) {
	seg := transport.NewManualSimSegment(netsim.DefaultConfig(), virtualStart) // no goroutine of its own
	defer seg.Close()
	closed := func(h *core.Host) {
		t.Helper()
		_ = h.Close()
		for deadline := time.Now().Add(5 * time.Second); ; runtime.Gosched() {
			by, total := spawned()
			if total == 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%d goroutines left after Close: %v", total, by)
			}
		}
	}
	for _, tc := range []struct {
		name   string
		ledger bool
		factor int
	}{
		{"publisher and replica", true, 1},
		{"replica", false, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			hcfg := func(name string) core.HostConfig {
				if !tc.ledger {
					return core.HostConfig{}
				}
				return core.HostConfig{LedgerPath: filepath.Join(dir, name+".ledger")}
			}
			plain, err := core.NewHost(seg, "plain", hcfg("plain"))
			if err != nil {
				t.Fatal(err)
			}
			_, goroutines := spawned()
			clients := daemonClients(plain)
			closed(plain)

			// The store holds two origins, a ledger each.
			store := filepath.Join(dir, "store")
			s, err := OpenStore(store, false, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, origin := range []string{deadOrigin, deadOrigin + "2"} {
				if _, err := s.Apply(origin, 1, twoEntries); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			repl, err := core.NewHost(seg, "repl", hcfg("repl"))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Attach(repl, Config{Factor: tc.factor, Dir: store, FsyncPolicy: "lazy"}); err != nil {
				_ = repl.Close()
				t.Fatal(err)
			}
			by, total := spawned()
			if total != goroutines {
				t.Errorf("a replicated host runs %d goroutines, want the unreplicated host's %d: %v",
					total, goroutines, by)
			}
			if got := daemonClients(repl); got != clients {
				t.Errorf("the daemon of a replicated host holds %d clients, want %d", got, clients)
			}
			closed(repl)
		})
	}
}
