package infobus

import (
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"infobus/internal/sysagent"
	"infobus/internal/telemetry"
)

// TestPublicAPIOverSimSegment exercises the README quick-start path.
func TestPublicAPIOverSimSegment(t *testing.T) {
	netCfg := DefaultNetConfig()
	netCfg.Speedup = 2000
	seg := NewSimSegment(netCfg)
	defer seg.Close()

	host, err := NewHost(seg, "trader-7", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer host.Close()
	bus, err := host.NewBus("news-monitor")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := bus.Subscribe("news.equity.*")
	if err != nil {
		t.Fatal(err)
	}

	story, err := NewClass("QuickStory", nil, []Attr{
		{Name: "headline", Type: String},
		{Name: "score", Type: Float},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := NewObject(story)
	if err != nil {
		t.Fatal(err)
	}
	obj.MustSet("headline", "GM surges").MustSet("score", 0.9)
	if err := bus.Publish("news.equity.gmc", obj); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C:
		if ev.Subject.String() != "news.equity.gmc" {
			t.Errorf("subject = %s", ev.Subject)
		}
		rendered := Print(ev.Value)
		if !strings.Contains(rendered, `headline: "GM surges"`) {
			t.Errorf("Print = %q", rendered)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event never arrived")
	}
	if d := Describe(story); !strings.Contains(d, "class QuickStory") {
		t.Errorf("Describe = %q", d)
	}
}

// TestPublicAPIOverUDPSegment runs the same stack over real loopback UDP.
func TestPublicAPIOverUDPSegment(t *testing.T) {
	seg := NewUDPSegment()
	defer seg.Close()
	pubHost, err := NewHost(seg, "pub", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer pubHost.Close()
	subHost, err := NewHost(seg, "sub", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer subHost.Close()

	subBus, _ := subHost.NewBus("consumer")
	sub, err := subBus.Subscribe("udp.check")
	if err != nil {
		t.Fatal(err)
	}
	pubBus, _ := pubHost.NewBus("producer")
	if err := pubBus.Publish("udp.check", int64(7)); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C:
		if ev.Value != int64(7) {
			t.Errorf("value = %v", ev.Value)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("event never arrived over UDP")
	}
}

// TestPublicTDLAndDiscovery exercises the TDL and discovery facade.
func TestPublicTDLAndDiscovery(t *testing.T) {
	netCfg := DefaultNetConfig()
	netCfg.Speedup = 2000
	seg := NewSimSegment(netCfg)
	defer seg.Close()

	serverHost, err := NewHost(seg, "server", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer serverHost.Close()
	serverBus, _ := serverHost.NewBus("svc")

	interp := NewTDL(serverBus.Registry())
	if _, err := interp.EvalString(`(defclass Probe () ((id int)))`); err != nil {
		t.Fatal(err)
	}
	if !serverBus.Registry().Has("Probe") {
		t.Fatal("TDL class not registered via facade")
	}

	ann, err := Announce(serverBus, "svc.probe", func() Value { return "alive" })
	if err != nil {
		t.Fatal(err)
	}
	defer ann.Close()

	clientHost, err := NewHost(seg, "client", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer clientHost.Close()
	clientBus, _ := clientHost.NewBus("probe")
	found, err := Discover(clientBus, "svc.probe", DiscoveryOptions{Window: 300 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[0].Info != "alive" {
		t.Fatalf("found = %+v", found)
	}
}

// TestPublicReplicate composes a replicated host through the facade:
// NewHost, then Replicate. The publisher reaches quorum with one replica,
// and its "_sys.history" answer carries the series the replication tier
// registered on the host's history tier.
func TestPublicReplicate(t *testing.T) {
	netCfg := DefaultNetConfig()
	netCfg.Speedup = 2000
	seg := NewSimSegment(netCfg)
	defer seg.Close()
	dir := t.TempDir()

	pub, err := NewHost(seg, "pub", HostConfig{
		LedgerPath: filepath.Join(dir, "pub.ledger"),
		Telemetry:  TelemetryConfig{HistoryInterval: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer pub.Close()
	if err := Replicate(pub, ReplicationConfig{Factor: 1, AckTimeout: 5 * time.Second, FsyncPolicy: "lazy"}); err != nil {
		t.Fatal(err)
	}
	replica, err := NewHost(seg, "replica", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if err := Replicate(replica, ReplicationConfig{Dir: filepath.Join(dir, "replica"), DisableRecovery: true}); err != nil {
		t.Fatal(err)
	}

	pubBus, _ := pub.NewBus("producer")
	if _, err := pubBus.PublishGuaranteed("orders.new", "o-1"); err != nil {
		t.Fatalf("publish with the replica up: %v", err)
	}

	mon, err := NewHost(seg, "mon", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	monBus, _ := mon.NewBus("monitor")
	answers, err := monBus.Subscribe(SysHistoryPrefix + ".pub")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"qledger.acks_recv", "qledger.repl_lag", "qledger.quorum_wait_ns"}
	deadline := time.After(10 * time.Second)
	for {
		if err := monBus.Publish(SysHistorySubject, int64(1)); err != nil {
			t.Fatal(err)
		}
		select {
		case ev := <-answers.C:
			obj, ok := ev.Value.(*Object)
			var snap telemetry.HistorySnapshot
			if !ok || !telemetry.SysHistory.Read(obj, &snap) {
				t.Fatalf("history answer = %v", ev.Value)
			}
			have := map[string]bool{}
			for _, s := range snap.Series {
				have[s.Name] = true
			}
			for _, name := range want {
				if !have[name] {
					t.Fatalf("history answer lacks %s (series %v)", name, have)
				}
			}
			// Digests share the subject and carry at most DigestSamples
			// samples a series: more is the probe's full window.
			for _, s := range snap.Series {
				if s.Name == "daemon.inbound" && len(s.Samples) > sysagent.DigestSamples {
					return
				}
			}
		case <-deadline:
			t.Fatal("no _sys.history answer")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

func TestPublicSubjectHelpers(t *testing.T) {
	if _, err := ParseSubject("a.b.c"); err != nil {
		t.Error(err)
	}
	if _, err := ParseSubject("a.*"); err == nil {
		t.Error("wildcard accepted as concrete subject")
	}
	if _, err := ParsePattern("a.*.>"); err != nil {
		t.Error(err)
	}
	if _, err := ParsePattern(">.a"); err == nil {
		t.Error("misplaced > accepted")
	}
	if lt := ListOf(Int); lt.Name() != "list<int>" {
		t.Errorf("ListOf = %s", lt.Name())
	}
	if NewRegistry() == nil {
		t.Error("NewRegistry")
	}
}

// TestRMIOverUDPSegment runs discovery + request/reply over real loopback
// UDP sockets through the public facade.
func TestRMIOverUDPSegment(t *testing.T) {
	seg := NewUDPSegment()
	defer seg.Close()
	serverHost, err := NewHost(seg, "server", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer serverHost.Close()
	serverBus, _ := serverHost.NewBus("svc")

	iface, err := NewClass("EchoService", nil, nil, []Operation{
		{Name: "echo", Params: []Param{{Name: "s", Type: String}}, Result: String},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewRMIServer(serverBus, seg, "svc.echo", iface,
		func(op string, args []Value) (Value, error) {
			return "echo: " + args[0].(string), nil
		}, RMIServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientHost, err := NewHost(seg, "client", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer clientHost.Close()
	clientBus, _ := clientHost.NewBus("app")
	c, err := DialRMI(clientBus, seg, "svc.echo", RMIDialOptions{
		DiscoveryWindow: 500 * time.Millisecond,
		Timeout:         2 * time.Second,
		Retries:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Invoke("echo", "over-udp")
	if err != nil || got != "echo: over-udp" {
		t.Fatalf("invoke = %v, %v", got, err)
	}
}

// TestStaticUDPSegmentsEndToEnd exercises the multi-process deployment
// path (cmd/busd et al.) in-process: two static-peer UDP segments, one per
// "process", full bus stack on top.
func TestStaticUDPSegmentsEndToEnd(t *testing.T) {
	ports := freeUDPPorts(t, 2)
	segA := NewStaticUDPSegment(ports[0], []string{ports[1]})
	defer segA.Close()
	segB := NewStaticUDPSegment(ports[1], []string{ports[0]})
	defer segB.Close()

	hostA, err := NewHost(segA, "proc-a", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hostA.Close()
	hostB, err := NewHost(segB, "proc-b", HostConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer hostB.Close()

	busB, _ := hostB.NewBus("monitor")
	sub, err := busB.Subscribe("cross.process.*")
	if err != nil {
		t.Fatal(err)
	}
	busA, _ := hostA.NewBus("console")
	if err := busA.Publish("cross.process.msg", "hello from process A"); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-sub.C:
		if ev.Value != "hello from process A" {
			t.Errorf("value = %v", ev.Value)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("publication never crossed processes")
	}
}

func freeUDPPorts(t *testing.T, n int) []string {
	t.Helper()
	conns := make([]*net.UDPConn, 0, n)
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		c, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		conns = append(conns, c)
		addrs = append(addrs, c.LocalAddr().String())
	}
	for _, c := range conns {
		_ = c.Close()
	}
	return addrs
}
