package rmi

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"infobus/internal/core"
	"infobus/internal/mop"
	"infobus/internal/netsim"
	"infobus/internal/reliable"
	"infobus/internal/tdl"
	"infobus/internal/transport"
)

func fastReliable() reliable.Config {
	return reliable.Config{
		NakInterval:        2 * time.Millisecond,
		GapTimeout:         300 * time.Millisecond,
		RetransmitInterval: 3 * time.Millisecond,
		HeartbeatInterval:  5 * time.Millisecond,
	}
}

func fastSeg() *transport.SimSegment {
	cfg := netsim.DefaultConfig()
	cfg.Speedup = 5000
	return transport.NewSimSegment(cfg)
}

func newBus(t *testing.T, seg transport.Segment, host string) *core.Bus {
	t.Helper()
	h, err := core.NewHost(seg, host, core.HostConfig{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = h.Close() })
	b, err := h.NewBus("app")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// calcIface is a small arithmetic service interface.
func calcIface() *mop.Type {
	return mop.MustNewClass("Calculator", nil, nil, []mop.Operation{
		{Name: "add", Params: []mop.Param{{Name: "a", Type: mop.Int}, {Name: "b", Type: mop.Int}}, Result: mop.Int},
		{Name: "upcase", Params: []mop.Param{{Name: "s", Type: mop.String}}, Result: mop.String},
		{Name: "fail", Params: nil, Result: nil},
	})
}

func calcHandler(op string, args []mop.Value) (mop.Value, error) {
	switch op {
	case "add":
		return args[0].(int64) + args[1].(int64), nil
	case "upcase":
		s := args[0].(string)
		out := make([]byte, len(s))
		for i := 0; i < len(s); i++ {
			c := s[i]
			if c >= 'a' && c <= 'z' {
				c -= 32
			}
			out[i] = c
		}
		return string(out), nil
	case "fail":
		return nil, errors.New("deliberate failure")
	default:
		return nil, ErrBadOp
	}
}

func dialOpts() DialOptions {
	return DialOptions{
		DiscoveryWindow: 200 * time.Millisecond,
		Timeout:         300 * time.Millisecond,
		Retries:         3,
		Reliable:        fastReliable(),
	}
}

func startCalc(t *testing.T, seg transport.Segment, host string, opts ServerOptions) *Server {
	t.Helper()
	bus := newBus(t, seg, host)
	opts.Reliable = fastReliable()
	s, err := NewServer(bus, seg, "svc.calc", calcIface(), calcHandler, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

func TestInvokeRoundTrip(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	startCalc(t, seg, "server", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	got, err := c.Invoke("add", int64(2), int64(40))
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(42) {
		t.Errorf("add = %v", got)
	}
	got, err = c.Invoke("upcase", "gm")
	if err != nil || got != "GM" {
		t.Errorf("upcase = %v, %v", got, err)
	}
}

func TestRemoteIntrospection(t *testing.T) {
	// The client learns the service's interface — operations and
	// signatures — purely from the discovery reply (P2).
	seg := fastSeg()
	defer seg.Close()
	startCalc(t, seg, "server", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	iface := c.Interface()
	if iface == nil {
		t.Fatal("no interface travelled")
	}
	op, ok := iface.Operation("add")
	if !ok {
		t.Fatal("operation add missing from remote interface")
	}
	if got := op.Signature(); got != "add(a int, b int) -> int" {
		t.Errorf("signature = %q", got)
	}
}

func TestRemoteErrorsAndValidation(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	startCalc(t, seg, "server", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if _, err := c.Invoke("fail"); !errors.Is(err, ErrRemote) {
		t.Errorf("handler error = %v, want ErrRemote", err)
	}
	if _, err := c.Invoke("nosuch"); !errors.Is(err, ErrRemote) {
		t.Errorf("unknown op error = %v", err)
	}
	if _, err := c.Invoke("add", int64(1)); !errors.Is(err, ErrRemote) {
		t.Errorf("arity error = %v", err)
	}
	// Type validation happens server-side against the declared signature.
	if _, err := c.Invoke("add", "one", "two"); !errors.Is(err, ErrRemote) {
		t.Errorf("type error = %v", err)
	}
}

func TestDialNoServer(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.DiscoveryWindow = 50 * time.Millisecond
	if _, err := Dial(clientBus, seg, "svc.ghost", opts); !errors.Is(err, ErrNoServer) {
		t.Errorf("Dial error = %v, want ErrNoServer", err)
	}
}

func TestExactlyOnceUnderRetry(t *testing.T) {
	// Force client retries with a lossy network; the server must execute
	// each invocation exactly once (reply cache absorbs retries).
	netCfg := netsim.DefaultConfig()
	netCfg.Speedup = 5000
	netCfg.LossProb = 0.3
	netCfg.Seed = 11
	seg := transport.NewSimSegment(netCfg)
	defer seg.Close()
	var executions atomic.Int64
	bus := newBus(t, seg, "server")
	iface := calcIface()
	s, err := NewServer(bus, seg, "svc.calc", iface, func(op string, args []mop.Value) (mop.Value, error) {
		executions.Add(1)
		return calcHandler(op, args)
	}, ServerOptions{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.Timeout = 100 * time.Millisecond
	opts.Retries = 10
	c, err := Dial(clientBus, seg, "svc.calc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const n = 30
	for i := 0; i < n; i++ {
		got, err := c.Invoke("add", int64(i), int64(1))
		if err != nil {
			t.Fatalf("invoke %d: %v", i, err)
		}
		if got != int64(i+1) {
			t.Fatalf("add(%d,1) = %v", i, got)
		}
	}
	if executions.Load() != n {
		t.Errorf("executions = %d, want exactly %d", executions.Load(), n)
	}
}

func TestLeastLoadedPolicy(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	busy := startCalc(t, seg, "busy", ServerOptions{Load: func() int64 { return 90 }})
	idle := startCalc(t, seg, "idle", ServerOptions{Load: func() int64 { return 2 }})

	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.Policy = PickLeastLoaded
	c, err := Dial(clientBus, seg, "svc.calc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.ServerAddr() != idle.Addr() {
		t.Errorf("chose %s, want idle server %s (busy=%s)", c.ServerAddr(), idle.Addr(), busy.Addr())
	}
	if _, err := c.Invoke("add", int64(1), int64(2)); err != nil {
		t.Fatal(err)
	}
	if idle.Invoked() != 1 || busy.Invoked() != 0 {
		t.Errorf("invocations: idle=%d busy=%d", idle.Invoked(), busy.Invoked())
	}
}

func TestStandbyTakeover(t *testing.T) {
	// R1: live software upgrade. The standby (new version) is promoted,
	// the primary retires after serving outstanding requests, and new
	// clients transparently bind to the new server.
	seg := fastSeg()
	defer seg.Close()
	primary := startCalc(t, seg, "v1", ServerOptions{})
	standby := startCalc(t, seg, "v2", ServerOptions{Standby: true})

	clientBus := newBus(t, seg, "client")
	c1, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	if c1.ServerAddr() != primary.Addr() {
		t.Fatalf("first client bound to %s, want primary", c1.ServerAddr())
	}
	if _, err := c1.Invoke("add", int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}

	// Upgrade: promote the standby, retire the primary.
	if err := standby.Promote(); err != nil {
		t.Fatal(err)
	}
	primary.Retire()

	c2, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	if c2.ServerAddr() != standby.Addr() {
		t.Fatalf("post-upgrade client bound to %s, want standby %s", c2.ServerAddr(), standby.Addr())
	}
	// The retired primary still serves its connected client (outstanding
	// work drains before shutdown).
	if _, err := c1.Invoke("add", int64(2), int64(2)); err != nil {
		t.Errorf("retired primary refused existing client: %v", err)
	}
}

func TestInvokeTimeoutWhenServerDies(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	srv := startCalc(t, seg, "server", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.Timeout = 50 * time.Millisecond
	opts.Retries = 1
	c, err := Dial(clientBus, seg, "svc.calc", opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Invoke("add", int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	_ = srv.Close()
	if _, err := c.Invoke("add", int64(1), int64(1)); !errors.Is(err, ErrTimeout) {
		t.Errorf("invoke on dead server = %v, want ErrTimeout", err)
	}
}

func TestObjectsAsArgumentsAndResults(t *testing.T) {
	// Full circle: a TDL-ish dynamic class instance goes out as an
	// argument and a different instance comes back as the result.
	seg := fastSeg()
	defer seg.Close()
	point := mop.MustNewClass("Point", nil, []mop.Attr{
		{Name: "x", Type: mop.Float},
		{Name: "y", Type: mop.Float},
	}, nil)
	iface := mop.MustNewClass("Geometry", nil, nil, []mop.Operation{
		{Name: "mirror", Params: []mop.Param{{Name: "p", Type: point}}, Result: point},
	})
	bus := newBus(t, seg, "server")
	s, err := NewServer(bus, seg, "svc.geo", iface, func(op string, args []mop.Value) (mop.Value, error) {
		p := args[0].(*mop.Object)
		out := mop.MustNew(p.Type())
		out.MustSet("x", -p.MustGet("x").(float64))
		out.MustSet("y", -p.MustGet("y").(float64))
		return out, nil
	}, ServerOptions{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.geo", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Client builds its own Point class instance; the server decodes it
	// against the self-describing wire format.
	arg := mop.MustNew(point).MustSet("x", 3.0).MustSet("y", -4.0)
	got, err := c.Invoke("mirror", arg)
	if err != nil {
		t.Fatal(err)
	}
	res := got.(*mop.Object)
	if res.MustGet("x") != -3.0 || res.MustGet("y") != 4.0 {
		t.Errorf("mirror = %s", mop.Sprint(res))
	}
}

func TestClosedClientErrors(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	startCalc(t, seg, "server", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Close()
	_ = c.Close()
	if _, err := c.Invoke("add", int64(1), int64(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("invoke after close = %v", err)
	}
}

func TestConcurrentClients(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	startCalc(t, seg, "server", ServerOptions{})
	const nClients = 4
	errs := make(chan error, nClients)
	for i := 0; i < nClients; i++ {
		bus := newBus(t, seg, fmt.Sprintf("client%d", i))
		go func(b *core.Bus, base int64) {
			c, err := Dial(b, seg, "svc.calc", dialOpts())
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			for j := int64(0); j < 10; j++ {
				got, err := c.Invoke("add", base, j)
				if err != nil {
					errs <- err
					return
				}
				if got != base+j {
					errs <- fmt.Errorf("add(%d,%d) = %v", base, j, got)
					return
				}
			}
			errs <- nil
		}(bus, int64(i*100))
	}
	for i := 0; i < nClients; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestFailoverRebindsToSurvivor(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	primary := startCalc(t, seg, "primary", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.Timeout = 60 * time.Millisecond
	opts.Retries = 1
	f := NewFailover(clientBus, seg, "svc.calc", opts)
	defer f.Close()

	got, err := f.Invoke("add", int64(1), int64(2))
	if err != nil || got != int64(3) {
		t.Fatalf("first invoke = %v, %v", got, err)
	}
	if f.Binds() != 1 || f.ServerAddr() != primary.Addr() {
		t.Fatalf("bound to %s after %d binds", f.ServerAddr(), f.Binds())
	}

	// A replacement appears; the primary crashes.
	backup := startCalc(t, seg, "backup", ServerOptions{})
	_ = primary.Close()

	got, err = f.Invoke("add", int64(10), int64(20))
	if err != nil || got != int64(30) {
		t.Fatalf("post-crash invoke = %v, %v", got, err)
	}
	if f.ServerAddr() != backup.Addr() {
		t.Errorf("failover bound to %s, want backup %s", f.ServerAddr(), backup.Addr())
	}
	if f.Binds() != 2 {
		t.Errorf("binds = %d, want 2", f.Binds())
	}
}

func TestFailoverNoSurvivor(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	only := startCalc(t, seg, "only", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.Timeout = 50 * time.Millisecond
	opts.Retries = 0
	opts.DiscoveryWindow = 60 * time.Millisecond
	f := NewFailover(clientBus, seg, "svc.calc", opts)
	defer f.Close()
	if _, err := f.Invoke("add", int64(1), int64(1)); err != nil {
		t.Fatal(err)
	}
	_ = only.Close()
	if _, err := f.Invoke("add", int64(1), int64(1)); !errors.Is(err, ErrTimeout) {
		t.Errorf("invoke with no survivor = %v, want ErrTimeout", err)
	}
	// Lazy rebinding works once a server returns.
	startCalc(t, seg, "revived", ServerOptions{})
	got, err := f.Invoke("add", int64(2), int64(2))
	if err != nil || got != int64(4) {
		t.Errorf("post-revival invoke = %v, %v", got, err)
	}
	_ = f.Close()
	if _, err := f.Invoke("add", int64(1), int64(1)); !errors.Is(err, ErrClosed) {
		t.Errorf("invoke after close = %v", err)
	}
}

func TestDialAllScatterGather(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	s1 := startCalc(t, seg, "s1", ServerOptions{})
	s2 := startCalc(t, seg, "s2", ServerOptions{})
	clientBus := newBus(t, seg, "client")
	clients, err := DialAll(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, c := range clients {
			_ = c.Close()
		}
	}()
	if len(clients) != 2 {
		t.Fatalf("clients = %d, want 2", len(clients))
	}
	addrs := map[string]bool{clients[0].ServerAddr(): true, clients[1].ServerAddr(): true}
	if !addrs[s1.Addr()] || !addrs[s2.Addr()] {
		t.Errorf("connected to %v, want both servers", addrs)
	}
	// Scatter-gather: every server answers.
	results, errs := InvokeAll(clients, "add", int64(20), int64(22))
	for i := range clients {
		if errs[i] != nil || results[i] != int64(42) {
			t.Errorf("client %d: %v, %v", i, results[i], errs[i])
		}
	}
	if s1.Invoked() != 1 || s2.Invoked() != 1 {
		t.Errorf("invocations: s1=%d s2=%d", s1.Invoked(), s2.Invoked())
	}
}

func TestDialAllNoServers(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	clientBus := newBus(t, seg, "client")
	opts := dialOpts()
	opts.DiscoveryWindow = 50 * time.Millisecond
	if _, err := DialAll(clientBus, seg, "svc.none", opts); !errors.Is(err, ErrNoServer) {
		t.Errorf("DialAll error = %v", err)
	}
}

// TestTDLBackedService demonstrates the paper's "all high-level application
// behavior is encoded in the interpreted language" (§5.1): the RMI handler
// dispatches straight into TDL generic functions.
func TestTDLBackedService(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	serverBus := newBus(t, seg, "tdl-server")
	interp := tdl.New(serverBus.Registry(), nil)
	if _, err := interp.EvalString(`
	  (defclass Greeter () ((greeting string)))
	  (define the-greeter (make-instance 'Greeter 'greeting "hello"))
	  (defmethod greet ((g Greeter) name)
	    (concat (slot-value g 'greeting) ", " name "!"))
	`); err != nil {
		t.Fatal(err)
	}
	iface := mop.MustNewClass("GreeterService", nil, nil, []mop.Operation{
		{Name: "greet", Params: []mop.Param{{Name: "name", Type: mop.String}}, Result: mop.String},
	})
	self, err := interp.EvalString("the-greeter")
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(serverBus, seg, "svc.greeter", iface,
		func(op string, args []mop.Value) (mop.Value, error) {
			return interp.Call(op, append([]mop.Value{self}, args...)...)
		}, ServerOptions{Reliable: fastReliable()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.greeter", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, err := c.Invoke("greet", "trader")
	if err != nil || got != "hello, trader!" {
		t.Fatalf("greet = %v, %v", got, err)
	}
	// Live behavior change: redefine the method in the running server.
	if _, err := interp.EvalString(`(defmethod greet ((g Greeter) name)
	    (concat "v2: " name))`); err != nil {
		t.Fatal(err)
	}
	got, err = c.Invoke("greet", "trader")
	if err != nil || got != "v2: trader" {
		t.Fatalf("post-redefinition greet = %v, %v", got, err)
	}
}

func TestElectionSingleLeader(t *testing.T) {
	seg := fastSeg()
	defer seg.Close()
	var servers []*Server
	var elections []*Election
	for i := 0; i < 3; i++ {
		bus := newBus(t, seg, fmt.Sprintf("member%d", i))
		s, err := NewServer(bus, seg, "svc.calc", calcIface(), calcHandler,
			ServerOptions{Standby: true, Reliable: fastReliable()})
		if err != nil {
			t.Fatal(err)
		}
		servers = append(servers, s)
		e, err := NewElection(bus.Host(), s, "svc.calc", 10*time.Millisecond)
		if err != nil {
			t.Fatal(err)
		}
		elections = append(elections, e)
	}
	defer func() {
		for i := range elections {
			elections[i].Close()
			_ = servers[i].Close()
		}
	}()
	// Exactly one leader emerges once everyone hears everyone.
	leaders := func() (int, int) {
		n, idx := 0, -1
		for i, e := range elections {
			if e.Leading() {
				n++
				idx = i
			}
		}
		return n, idx
	}
	deadline := time.After(10 * time.Second)
	for {
		n, _ := leaders()
		full := elections[0].Members() == 3 && elections[1].Members() == 3 && elections[2].Members() == 3
		if n == 1 && full {
			break
		}
		select {
		case <-deadline:
			n, _ := leaders()
			t.Fatalf("leaders = %d, members = %d/%d/%d", n,
				elections[0].Members(), elections[1].Members(), elections[2].Members())
		case <-time.After(3 * time.Millisecond):
		}
	}
	// A client binds to the elected leader.
	clientBus := newBus(t, seg, "client")
	c, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.Invoke("add", int64(5), int64(6))
	if err != nil || got != int64(11) {
		t.Fatalf("invoke = %v, %v", got, err)
	}
	_ = c.Close()

	// Kill the leader: another member takes over and serves new clients.
	_, leaderIdx := leaders()
	elections[leaderIdx].Close()
	_ = servers[leaderIdx].Close()
	deadline = time.After(10 * time.Second)
	for {
		n := 0
		for i, e := range elections {
			if i != leaderIdx && e.Leading() {
				n++
			}
		}
		if n == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatal("no successor elected")
		case <-time.After(3 * time.Millisecond):
		}
	}
	c2, err := Dial(clientBus, seg, "svc.calc", dialOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, err = c2.Invoke("add", int64(7), int64(8))
	if err != nil || got != int64(15) {
		t.Fatalf("post-failover invoke = %v, %v", got, err)
	}
}
