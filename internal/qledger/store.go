package qledger

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"infobus/internal/ledger"
	"infobus/internal/telemetry"
)

// Store holds this host's replica copies of other publishers' pending
// sets: one ordinary write-ahead ledger per origin, under a directory.
// Each ledger file is named by the hex of the origin token, so the replica
// set on disk is self-describing — an operator (or a recovery tool) can
// open any .qlog with the stock ledger code and read whose data it is from
// the name alone.
type Store struct {
	dir     string
	syncLog bool
	metrics *telemetry.Registry

	mu      sync.Mutex
	origins map[string]*originLog
	closed  bool
}

// originLog is the replica state for one publisher: its ledger plus the
// chunk-sequence bookkeeping that supports idempotent application and
// contiguity acks.
type originLog struct {
	led *ledger.Ledger
	// contiguous is the highest S with chunks 1..S all applied; ahead holds
	// the applied sequence numbers above it (out-of-order arrivals).
	contiguous uint64
	ahead      map[uint64]struct{}
	maxSeq     uint64
}

// OpenStore opens (creating if needed) the replica store rooted at dir.
// syncLog selects replica-side durability: true fsyncs each applied batch
// (the "batch" policy — quorum means machine-crash durable), false writes
// without fsync ("lazy" — process-crash durable only). The per-origin
// ledgers share metrics (so "ledger.*" counters on a replica host report
// its replica work); nil keeps them private.
func OpenStore(dir string, syncLog bool, metrics *telemetry.Registry) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("qledger: creating store dir: %w", err)
	}
	s := &Store{dir: dir, syncLog: syncLog, metrics: metrics, origins: make(map[string]*originLog)}
	// Adopt replica logs left by a previous run: pending entries in them
	// are exactly what a recovery coordinator must be able to read.
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("qledger: scanning store dir: %w", err)
	}
	seen := make(map[string]bool)
	for _, de := range names {
		name := de.Name()
		// Segment files look like <hex>.qlog.00000001.seg.
		i := len(name)
		for j := 0; j+5 <= len(name); j++ {
			if name[j:j+5] == ".qlog" {
				i = j
				break
			}
		}
		if i == len(name) {
			continue
		}
		raw, err := hex.DecodeString(name[:i])
		if err != nil || seen[string(raw)] {
			continue
		}
		seen[string(raw)] = true
		if _, err := s.open(string(raw)); err != nil {
			_ = s.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *Store) logPath(origin string) string {
	return filepath.Join(s.dir, hex.EncodeToString([]byte(origin))+".qlog")
}

// open returns the origin's log, opening or creating its ledger. Caller
// need not hold s.mu.
func (s *Store) open(origin string) (*originLog, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ledger.ErrClosed
	}
	if ol, ok := s.origins[origin]; ok {
		return ol, nil
	}
	led, err := ledger.Open(s.logPath(origin), ledger.Options{Sync: s.syncLog, Metrics: s.metrics})
	if err != nil {
		return nil, fmt.Errorf("qledger: opening replica log for %x: %w", origin, err)
	}
	ol := &originLog{led: led, ahead: make(map[uint64]struct{})}
	s.origins[origin] = ol
	return ol, nil
}

// Apply stores one mirrored batch chunk. It is idempotent: a chunk seq
// already applied is skipped (its content is on disk) but still reported
// applied, so the replica re-acks retransmissions. The returned contiguous
// value is the replica's high-water mark for the origin — every chunk
// 1..contiguous is durably applied.
func (s *Store) Apply(origin string, seq uint64, records []byte) (contiguous uint64, err error) {
	return s.ApplyRun(origin, []uint64{seq}, [][]byte{records})
}

// ApplyRun stores a run of mirrored chunks for one origin in a single
// ledger append — one group commit, one fsync, however many chunks the
// replica drained from its queue. This is the replica half of the fsync
// amortization: the publisher batches appends across concurrent
// publishers, the replica batches applies across queued frames. Duplicate
// seqs are skipped but still covered by the returned contiguous mark.
//
// The disk write happens outside s.mu (an fsync must not stall unrelated
// origins or readers). The recv loop is the only writer per store, so
// runs for one origin never interleave; a concurrent duplicate would cost
// a wasted write, not correctness — AppendBatch is idempotent per record.
func (s *Store) ApplyRun(origin string, seqs []uint64, runs [][]byte) (contiguous uint64, err error) {
	ol, err := s.open(origin)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	var concat []byte
	fresh := make([]uint64, 0, len(seqs))
	for i, seq := range seqs {
		if seq == 0 || seq <= ol.contiguous || sequenceIn(ol.ahead, seq) {
			continue // duplicate (retransmission): content already on disk
		}
		concat = append(concat, runs[i]...)
		fresh = append(fresh, seq)
	}
	if len(fresh) == 0 {
		defer s.mu.Unlock()
		return ol.contiguous, nil
	}
	s.mu.Unlock()
	if err := ol.led.AppendBatch(concat); err != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
		return ol.contiguous, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, seq := range fresh {
		if seq > ol.maxSeq {
			ol.maxSeq = seq
		}
		ol.ahead[seq] = struct{}{}
	}
	for {
		if _, ok := ol.ahead[ol.contiguous+1]; !ok {
			break
		}
		delete(ol.ahead, ol.contiguous+1)
		ol.contiguous++
	}
	return ol.contiguous, nil
}

func sequenceIn(m map[uint64]struct{}, seq uint64) bool {
	_, ok := m[seq]
	return ok
}

// Release applies recovery ack records for origin and retires the log if
// nothing is left pending: the publisher is gone, its entries are
// delivered, so the on-disk replica can be removed whole.
func (s *Store) Release(origin string, ackRecords []byte) error {
	s.mu.Lock()
	ol, ok := s.origins[origin]
	s.mu.Unlock()
	if !ok {
		return nil // nothing stored for this origin
	}
	if err := ol.led.AppendBatch(ackRecords); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || ol.led.Len() != 0 {
		return nil
	}
	delete(s.origins, origin)
	if err := ol.led.Close(); err != nil {
		return err
	}
	base := s.logPath(origin)
	matches, _ := filepath.Glob(base + ".*.seg")
	for _, m := range matches {
		_ = os.Remove(m)
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return nil
	}
	_ = d.Sync()
	return d.Close()
}

// Origins returns the origins with at least one pending entry, sorted.
func (s *Store) Origins() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []string
	for origin, ol := range s.origins {
		if ol.led.Len() > 0 {
			out = append(out, origin)
		}
	}
	sort.Strings(out)
	return out
}

// PendingCount returns the number of pending entries held for origin.
func (s *Store) PendingCount(origin string) int {
	s.mu.Lock()
	ol, ok := s.origins[origin]
	s.mu.Unlock()
	if !ok {
		return 0
	}
	return ol.led.Len()
}

// Contiguous returns the replica's contiguous chunk high-water mark.
func (s *Store) Contiguous(origin string) uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if ol, ok := s.origins[origin]; ok {
		return ol.contiguous
	}
	return 0
}

// PendingRecords returns origin's pending entries as ledger message
// records for a FrameReadRep, read back from its log in id order, stopping
// at maxBytes (the coordinator re-scans, so a truncated reply only delays
// the tail, never loses it).
func (s *Store) PendingRecords(origin string, maxBytes int) []byte {
	s.mu.Lock()
	ol, ok := s.origins[origin]
	s.mu.Unlock()
	if !ok {
		return nil
	}
	return ol.led.PendingRecords(nil, maxBytes)
}

// Close closes every replica ledger.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	logs := make([]*originLog, 0, len(s.origins))
	for _, ol := range s.origins {
		logs = append(logs, ol)
	}
	s.mu.Unlock()
	var err error
	for _, ol := range logs {
		if cerr := ol.led.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// stableReplicaToken reads (or mints and persists) the store's replica
// identity. Stability matters for quorum arithmetic: a replica that
// restarts must count as the same group member, not a new one, or a write
// quorum could be double-counted against one surviving disk.
func stableReplicaToken(dir string) (string, error) {
	path := filepath.Join(dir, "identity")
	if b, err := os.ReadFile(path); err == nil && len(b) > 0 && len(b) <= maxTokenLen {
		return string(b), nil
	}
	var raw [8]byte
	if _, err := rand.Read(raw[:]); err != nil {
		return "", err
	}
	tok := "r-" + hex.EncodeToString(raw[:])
	if err := os.WriteFile(path, []byte(tok), 0o644); err != nil {
		return "", err
	}
	f, err := os.Open(dir)
	if err == nil {
		_ = f.Sync()
		_ = f.Close()
	}
	return tok, nil
}
