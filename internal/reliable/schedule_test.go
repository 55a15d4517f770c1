package reliable

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"infobus/internal/netsim"
)

// Schedules only a pure machine allows: a minute of lossy churn in
// milliseconds, every combination of fates of a short burst, and the expiry
// of state for peers that have gone.

// soak runs 3 senders x 120 messages over a network losing 15 %,
// duplicating 5 % and reordering 10 % of its deliveries for 60 virtual
// seconds, with short-lived receivers joining and leaving, and returns the
// whole-run hosts, the short-lived ones and a transcript of every delivery.
func soak(t *testing.T, seed int64) (stayers, visitors []*host, transcript string) {
	netCfg := netsim.DefaultConfig()
	netCfg.LossProb, netCfg.DupProb, netCfg.ReorderProb, netCfg.Seed = 0.15, 0.05, 0.10, seed
	w := newWorld(t, 5, netCfg, Config{}) // hosts 0-2 publish, all five listen from start to end
	const perSender, every = 120, 400 * time.Millisecond
	for k := 0; k < perSender; k++ {
		for i, pub := range w.hosts[:3] {
			pub.publish("s%d-%03d", i, k)
			w.run(every / 4)
		}
		w.run(every / 4)
		if k%12 == 5 { // every ~5 s a receiver joins for ~7 s
			visitors = append(visitors, w.join(Config{}))
		}
		if k%12 == 10 && len(visitors) > 1 {
			visitors[len(visitors)-2].leave()
		}
	}
	w.run(60*time.Second - w.net.Now().Sub(virtualStart))
	var log strings.Builder
	for i, h := range w.hosts {
		fmt.Fprintf(&log, "host %d (%s) %+v:", i, h.addr(), h.m.Stats())
		for _, m := range h.got {
			fmt.Fprintf(&log, " %s", m.Payload)
		}
		log.WriteByte('\n')
	}
	fmt.Fprintf(&log, "network %+v\n", w.net.Stats())
	return w.hosts[:5], visitors, log.String()
}

// perSender splits what a host delivered into one sequence of message
// numbers per sender name ("s1"), checking each carries its sender's address.
func perSender(t *testing.T, w []*host, h *host) map[string][]int {
	t.Helper()
	out := map[string][]int{}
	for _, m := range h.got {
		var sender, k int
		if _, err := fmt.Sscanf(string(m.Payload), "s%d-%d", &sender, &k); err != nil || m.From != w[sender].addr() {
			t.Fatalf("%s delivered %q from %s", h.addr(), m.Payload, m.From)
		}
		name := fmt.Sprintf("s%d", sender)
		out[name] = append(out[name], k)
	}
	return out
}

func TestSoakLossyChurn(t *testing.T) {
	stayers, visitors, transcript := soak(t, 20)
	for i, h := range stayers {
		streams := perSender(t, stayers, h)
		want := 3
		if i < 3 {
			want = 2 // a sender does not hear itself
		}
		if len(streams) != want {
			t.Errorf("%s heard %d senders, want %d", h.addr(), len(streams), want)
		}
		for name, ks := range streams {
			// FIFO, no duplicate and no interior gap: consecutive numbers up
			// to the last one published. Only the head may be missing — a
			// first message lost to a receiver that had not heard of the
			// sender is not history anyone owes it (P4).
			for i, k := range ks {
				if k != ks[0]+i {
					t.Fatalf("%s from %s: %v: not consecutive at %d", h.addr(), name, ks, i)
				}
			}
			if ks[0] > 1 || ks[len(ks)-1] != 119 {
				t.Errorf("%s from %s: delivered %d..%d, want 0..119", h.addr(), name, ks[0], ks[len(ks)-1])
			}
		}
		if st := h.m.Stats(); st.Skipped != 0 || st.NaksSent == 0 || st.Duplicates == 0 {
			t.Errorf("%s: %+v: a skip, or a network that lost or duplicated nothing", h.addr(), st)
		}
	}
	if len(visitors) < 8 {
		t.Fatalf("only %d receivers came and went", len(visitors))
	}
	for _, h := range visitors {
		for name, ks := range perSender(t, stayers, h) {
			if len(ks) < 4 {
				t.Errorf("visitor %s heard %d messages of %s", h.addr(), len(ks), name)
			}
			for i, k := range ks { // joined mid-stream, left mid-stream, nothing missing in between
				if k != ks[0]+i {
					t.Fatalf("visitor %s from %s: %v: not consecutive at %d", h.addr(), name, ks, i)
				}
			}
		}
	}
	// Same seed, same run, byte for byte.
	if _, _, again := soak(t, 20); again != transcript {
		t.Error("the same seed gave two different runs")
	}
	if _, _, other := soak(t, 21); other == transcript {
		t.Error("a different seed gave the same run")
	}
}

// lab is two machines joined by a wire the test scripts: frames posted to
// it arrive when it says, and nothing else is lost, so a schedule is
// exactly the fates the test chose.
type lab struct {
	elapsed  time.Duration
	flights  []flight
	posted   int
	sender   labNode
	receiver labNode
}

type flight struct {
	at    time.Duration
	order int
	to    *labNode
	from  string
	data  []byte
}

type labNode struct {
	lab     *lab
	addr    string
	peer    *labNode
	m       *Machine
	got     []string
	gotAt   []time.Duration // when each of got was delivered
	capture *[][]byte       // when set, broadcasts are kept here instead of sent
	gone    bool            // frames posted to it vanish
}

const labLatency = 100 * time.Microsecond

func (n *labNode) Send(_ string, data []byte) error {
	n.lab.post(n.lab.elapsed+labLatency, n.peer, n.addr, data)
	return nil
}

func (n *labNode) Broadcast(data []byte) error {
	if n.capture != nil {
		*n.capture = append(*n.capture, append([]byte(nil), data...))
		return nil
	}
	return n.Send("", data)
}

func (l *lab) now() time.Time { return virtualStart.Add(l.elapsed) }

func (l *lab) post(at time.Duration, to *labNode, from string, data []byte) {
	if to.gone {
		return
	}
	l.posted++
	l.flights = append(l.flights, flight{at, l.posted, to, from, append([]byte(nil), data...)})
}

func newLab(window int) *lab {
	l := &lab{}
	l.sender = labNode{lab: l, addr: "lab:sender", peer: &l.receiver}
	l.receiver = labNode{lab: l, addr: "lab:receiver", peer: &l.sender}
	l.sender.m = NewMachine(&l.sender, Config{Window: window, Seed: 1}, 1, l.now)
	l.receiver.m = NewMachine(&l.receiver, Config{Seed: 2}, 1, l.now)
	return l
}

// run lets d pass: flights land in (time, posting) order and both machines
// tick on their own cadence.
func (l *lab) run(d time.Duration) {
	tick := l.sender.m.TickInterval()
	for end := l.elapsed + d; l.elapsed < end; {
		next := (l.elapsed/tick + 1) * tick
		sort.Slice(l.flights, func(i, j int) bool {
			a, b := l.flights[i], l.flights[j]
			return a.at < b.at || (a.at == b.at && a.order < b.order)
		})
		if len(l.flights) > 0 && l.flights[0].at < next {
			f := l.flights[0]
			l.flights = l.flights[1:]
			if f.at > l.elapsed {
				l.elapsed = f.at
			}
			f.to.m.OnDatagram(f.from, f.data)
		} else {
			l.elapsed = next
			l.sender.m.Tick(l.now())
			l.receiver.m.Tick(l.now())
		}
		for _, d := range take(l.receiver.m) {
			l.receiver.got = append(l.receiver.got, string(d.Message.Payload))
			l.receiver.gotAt = append(l.receiver.gotAt, l.elapsed)
		}
	}
}

// TestFirstPublicationWithinOneTransit: on the default Config a host's first
// publication is delivered by its peer at the instant the datagram lands,
// not when a join grace of NakInterval has run out.
func TestFirstPublicationWithinOneTransit(t *testing.T) {
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{})
	pub, sub := w.hosts[0], w.hosts[1]
	pub.publish("first")
	for w.net.Stats().Delivered == 0 { // event by event, to the landing
		at, ok := w.net.NextEvent()
		if !ok {
			t.Fatal("the publication never landed")
		}
		w.run(at.Sub(w.net.Now()))
	}
	if transit := w.net.Now().Sub(virtualStart); len(sub.got) != 1 || transit >= sub.m.TickInterval() {
		t.Fatalf("%d delivered when the datagram landed, %v after the publish", len(sub.got), transit)
	}
}

const (
	fateDeliver = iota
	fateDrop
	fateDuplicate
	fateDelay // arrives after its successor would have
	fates
)

// TestExhaustiveFates: one sender, four messages, a window of four and then
// of two; each of the four datagrams is delivered, dropped, duplicated or
// delayed past its successor — all 256 combinations — with heartbeats, NAKs
// and retransmissions running over a wire that loses nothing else. Every
// message is delivered once and in order, except that one dropped after it
// has left the window is skipped, and counted.
//
// The burst runs behind a prologue that establishes the stream, and again as
// the stream's first four messages (the join). A join delivers what the join
// grace releases: with sequence 1, as behind a prologue; without it, from the
// smallest sequence that survives, for the head lost before the receiver
// heard of the sender is not history anyone owes it (P4) and is not counted.
// That content is the grace's, and so holds however long the grace lasts;
// the timing half checks that a join whose sequence 1 survives delivers at
// the instant sequence 1 arrives.
func TestExhaustiveFates(t *testing.T) {
	const msgs = 4
	type fateRun struct {
		window, combo         int
		got, want             []string
		skipped, wantSkipped  uint64
		seq1At, firstDelivery time.Duration // after the burst started; -1 for never
	}
	runFates := func(t *testing.T, prologue bool) []fateRun {
		var runs []fateRun
		for _, window := range []int{4, 2} {
			for combo := 0; combo < 1<<(2*msgs); combo++ {
				l := newLab(window)
				s, r := &l.sender, &l.receiver
				var want []string
				if prologue {
					if err := s.m.Publish([]byte("p")); err != nil {
						t.Fatal(err)
					}
					l.run(2 * r.m.cfg.NakInterval)
					want = []string{"p"}
				}
				var burst [][]byte
				s.capture = &burst
				for i := 0; i < msgs; i++ {
					if err := s.m.Publish([]byte{'m', byte('1' + i)}); err != nil {
						t.Fatal(err)
					}
				}
				s.capture = nil
				run := fateRun{window: window, combo: combo, seq1At: -1, firstDelivery: -1}
				const spacing = 200 * time.Microsecond
				start, head := l.elapsed, len(r.got)
				survived := prologue // something before message i arrived: its drop is a gap, not the head
				for i, data := range burst {
					at := start + time.Duration(i)*spacing
					fate := combo >> (2 * i) % fates
					switch fate {
					case fateDeliver:
						l.post(at, r, s.addr, data)
					case fateDuplicate:
						l.post(at, r, s.addr, data)
						l.post(at+spacing/10, r, s.addr, data)
					case fateDelay:
						at += spacing + spacing/2
						l.post(at, r, s.addr, data)
					}
					switch {
					case fate == fateDrop && !survived:
						// the head of a stream nobody knew: not owed
					case fate == fateDrop && i < msgs-window:
						run.wantSkipped++ // gone from the window before anyone can ask
					default:
						survived = true
						want = append(want, string([]byte{'m', byte('1' + i)}))
					}
					if i == 0 && fate != fateDrop {
						run.seq1At = at - start
					}
				}
				l.run(r.m.cfg.GapTimeout + time.Second)
				run.got, run.want, run.skipped = r.got, want, r.m.Stats().Skipped
				if len(r.gotAt) > head {
					run.firstDelivery = r.gotAt[head] - start
				}
				runs = append(runs, run)
			}
		}
		return runs
	}
	checkContent := func(t *testing.T, runs []fateRun) {
		for _, run := range runs {
			if fmt.Sprint(run.got) != fmt.Sprint(run.want) || run.skipped != run.wantSkipped {
				t.Fatalf("window %d, fates %08b: delivered %v (skipped %d), want %v (skipped %d)",
					run.window, run.combo, run.got, run.skipped, run.want, run.wantSkipped)
			}
		}
	}
	t.Run("prologue", func(t *testing.T) { checkContent(t, runFates(t, true)) })
	t.Run("join", func(t *testing.T) {
		runs := runFates(t, false)
		t.Run("content", func(t *testing.T) { checkContent(t, runs) })
		t.Run("timing", func(t *testing.T) {
			for _, run := range runs {
				if run.seq1At >= 0 && run.firstDelivery != run.seq1At {
					t.Fatalf("window %d, fates %08b: sequence 1 arrived at +%v, first delivery at +%v",
						run.window, run.combo, run.seq1At, run.firstDelivery)
				}
			}
		})
	})
}

// TestScatteredLossAtDefaultTimers: 200 messages, every fourth lost, the
// default Config. Each hole is asked for as soon as the one before it is
// filled and the gap's timeout runs from that progress, so fifty holes are
// fifty round trips — not fifty NakIntervals against one GapTimeout, which
// skipped messages whose retransmissions all arrived. A sender that goes
// away in the middle is still given up on GapTimeout after it last answered.
func TestScatteredLossAtDefaultTimers(t *testing.T) {
	const msgs = 200
	lossy := func() *lab {
		l := newLab(0)
		s, r := &l.sender, &l.receiver
		if err := s.m.Publish([]byte("p")); err != nil {
			t.Fatal(err)
		}
		l.run(2 * r.m.cfg.NakInterval)
		var burst [][]byte
		s.capture = &burst
		for i := 0; i < msgs; i++ {
			if err := s.m.Publish([]byte(fmt.Sprintf("m%03d", i))); err != nil {
				t.Fatal(err)
			}
		}
		s.capture = nil
		for i, data := range burst {
			if i%4 != 1 {
				l.post(l.elapsed+time.Duration(i)*10*time.Microsecond, r, s.addr, data)
			}
		}
		return l
	}

	l := lossy()
	r := &l.receiver
	l.run(r.m.cfg.GapTimeout + time.Second)
	want := []string{"p"}
	for i := 0; i < msgs; i++ {
		want = append(want, fmt.Sprintf("m%03d", i))
	}
	if st := r.m.Stats(); fmt.Sprint(r.got) != fmt.Sprint(want) || st.Skipped != 0 || st.NaksSent < msgs/4 {
		t.Fatalf("delivered %d of %d in order, skipped %d, %d NAKs; want all, 0, >= %d",
			len(r.got), len(want), st.Skipped, st.NaksSent, msgs/4)
	}

	l = lossy()
	r = &l.receiver
	tick := r.m.TickInterval()
	for len(r.got) < 1+msgs/2 { // half recovered
		l.run(tick)
	}
	l.sender.gone = true
	l.flights = nil
	progress, got := l.elapsed, len(r.got)
	for r.m.Stats().Skipped == 0 {
		if l.run(tick); len(r.got) > got && r.m.Stats().Skipped == 0 {
			progress, got = l.elapsed, len(r.got)
		}
		if l.elapsed > progress+2*r.m.cfg.GapTimeout {
			t.Fatal("a sender that is gone was never given up on")
		}
	}
	if waited := l.elapsed - progress; waited < r.m.cfg.GapTimeout || waited > r.m.cfg.GapTimeout+2*tick {
		t.Errorf("gave up %v after the sender's last answer, want GapTimeout (%v)", waited, r.m.cfg.GapTimeout)
	}
}

// TestIdleStreamsExpire: a machine that has heard a thousand one-shot
// peers — each broadcast once, sent one unicast and was sent one reply, a
// tenth of them gone before acknowledging it — holds nothing for any of
// them once they have been silent long enough, stops retransmitting to the
// dead, and treats a peer that speaks again as new without delivering
// anything twice.
func TestIdleStreamsExpire(t *testing.T) {
	var b stub
	m := NewMachine(&b, Config{GapTimeout: 100 * time.Millisecond, Seed: 9}, 1, b.now)
	const peers, epoch = 1000, 5
	addr := func(i int) string { return fmt.Sprintf("stub:one-shot%d", i) }
	for i := 0; i < peers; i++ {
		m.OnDatagram(addr(i), seqFrame(frameData, epoch, 1))
		m.OnDatagram(addr(i), seqFrame(frameUData, epoch, 1))
		if err := m.SendTo(addr(i), []byte("reply")); err != nil {
			t.Fatal(err)
		}
		if i%10 != 0 {
			m.OnDatagram(addr(i), encodeAck(ackFrame{epoch: m.epoch, cum: 1}))
		}
	}
	b.tickThrough(m, m.cfg.NakInterval)
	if got := len(take(m)); got != 2*peers {
		t.Fatalf("%d messages delivered, want %d", got, 2*peers)
	}
	if len(m.bPeers) != peers || len(m.uPeers) != peers || len(m.uSend) != peers {
		t.Fatalf("state for %d/%d/%d peers, want %d each", len(m.bPeers), len(m.uPeers), len(m.uSend), peers)
	}
	b.tickThrough(m, 2*m.expiry+2*m.cfg.GapTimeout)
	if len(m.bPeers)+len(m.bList)+len(m.uPeers)+len(m.uSend)+len(m.uList) != 0 {
		t.Fatalf("state left for silent peers: %d/%d broadcast, %d unicast in, %d/%d unicast out",
			len(m.bPeers), len(m.bList), len(m.uPeers), len(m.uSend), len(m.uList))
	}
	b.sent = nil
	b.tickThrough(m, time.Second)
	if len(b.sent) != 0 {
		t.Fatalf("still sending to peers that are gone: %+v", b.sent[0])
	}
	// Peer 7 resumes where it stopped, peer 8 as its own successor would
	// (a machine whose outbound stream expired numbers the next one anew).
	m.OnDatagram(addr(7), seqFrame(frameData, epoch, 2))
	m.OnDatagram(addr(7), seqFrame(frameUData, epoch+2, 1))
	if err := m.SendTo(addr(8), []byte("again")); err != nil {
		t.Fatal(err)
	}
	b.tickThrough(m, m.cfg.NakInterval)
	if got := take(m); len(got) != 2 || got[0].Message.From != addr(7) || got[1].Message.From != addr(7) {
		t.Fatalf("after resuming: %+v", got)
	}
	if d := m.Stats().Duplicates; d != 0 {
		t.Errorf("%d messages of a resumed peer taken for duplicates", d)
	}
	if f := b.sent[len(b.sent)-1]; f.typ != frameUData || f.data.epoch == m.epoch || f.data.msgs[0].seq != 1 {
		t.Errorf("new stream to a forgotten peer: %+v, want seq 1 under a new epoch", f.data)
	}
}

// TestExpiryAcrossMachines: what expiry may not break. A receiver keeps a
// unicast stream twice as long as its sender, so a sender that forgot and
// starts over is recognised (new epoch), never mistaken for duplicates; a
// destination that acknowledges nothing is given up on, with what it had
// not acknowledged; and a publisher that is merely idle is not forgotten,
// because it heartbeats.
func TestExpiryAcrossMachines(t *testing.T) {
	w := newWorld(t, 2, netsim.DefaultConfig(), Config{})
	a, b := w.hosts[0], w.hosts[1]
	send := func(text string) {
		t.Helper()
		if err := a.m.SendTo(b.addr(), []byte(text)); err != nil {
			t.Fatal(err)
		}
	}
	// Each stream is checked on its own: order across a sender's broadcast
	// and unicast streams is not promised.
	delivered := func() (bcast, ucast string) {
		var bs, us []string
		for _, m := range b.got {
			if string(m.Payload) == "hello" {
				bs = append(bs, string(m.Payload))
			} else {
				us = append(us, string(m.Payload))
			}
		}
		return strings.Join(bs, " "), strings.Join(us, " ")
	}
	a.publish("hello")
	send("one")
	w.until(time.Second, "first delivery", b.received(2))
	w.run(a.m.expiry * 3 / 2)
	if len(a.m.uSend) != 0 || len(b.m.uPeers) != 1 {
		t.Fatalf("after 1.5 expiries: sender keeps %d streams, receiver %d; want 0 and 1", len(a.m.uSend), len(b.m.uPeers))
	}
	if len(b.m.bPeers) != 1 {
		t.Fatal("an idle publisher that heartbeats was forgotten")
	}
	send("two")
	w.until(time.Second, "delivery on the new stream", b.received(3))
	// The destination disappears: what it never acknowledges goes with the
	// stream, and the next send starts a third one.
	id, _ := netsim.ParseAddr(b.addr())
	w.net.Partition(id)
	send("lost")
	w.run(a.m.expiry + time.Second)
	if len(a.m.uSend) != 0 {
		t.Fatal("sender still retransmitting to a destination silent for a whole expiry")
	}
	w.net.Heal()
	send("three")
	w.until(time.Second, "delivery after the partition", b.received(4))
	if bcast, ucast := delivered(); bcast != "hello" || ucast != "one two three" || b.m.Stats().Duplicates != 0 {
		t.Errorf("delivered %q broadcast and %q unicast with %d duplicates", bcast, ucast, b.m.Stats().Duplicates)
	}
	a.leave()
	w.run(2*b.m.expiry + 2*time.Second)
	if len(b.m.bPeers)+len(b.m.uPeers) != 0 {
		t.Errorf("receiver keeps %d/%d streams of a sender that left", len(b.m.bPeers), len(b.m.uPeers))
	}
}
