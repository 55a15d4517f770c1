package adapter

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"

	"infobus/internal/core"
	"infobus/internal/mop"
)

// This file integrates a legacy Work-In-Process system, following the
// paper's factory-floor war story: "the existing WIP system is written in
// Cobol, and there is only a primitive terminal interface. The adapter
// must act as a virtual user to the terminal interface."
//
// LegacyWIP simulates that system: an in-memory lot tracker reachable only
// through a screen-oriented terminal session (menus, prompts, fixed
// response lines). WIPAdapter subscribes to move commands on the bus,
// drives a terminal session like a human operator would, reads the
// confirmation screens back, and publishes resulting lot status objects.

// Bus classes for the WIP integration.
var (
	// WIPMoveType commands a lot move: published by factory applications.
	WIPMoveType = mop.MustNewClass("WIPMove", nil, []mop.Attr{
		{Name: "lot", Type: mop.String},
		{Name: "station", Type: mop.String},
	}, nil)
	// WIPStatusType reports a lot's location after a move: published by
	// the adapter from the legacy system's own answers.
	WIPStatusType = mop.MustNewClass("WIPStatus", nil, []mop.Attr{
		{Name: "lot", Type: mop.String},
		{Name: "station", Type: mop.String},
		{Name: "moves", Type: mop.Int},
	}, nil)
)

// ---------------------------------------------------------------------------
// The legacy system

// LegacyWIP is the simulated Cobol-era WIP tracker. All access goes
// through terminal sessions; there is deliberately no richer API.
type LegacyWIP struct {
	mu   sync.Mutex
	lots map[string]*lotRecord
}

type lotRecord struct {
	station string
	moves   int64
}

// NewLegacyWIP boots the legacy system with an empty lot database.
func NewLegacyWIP() *LegacyWIP {
	return &LegacyWIP{lots: make(map[string]*lotRecord)}
}

// screenState is the terminal session state machine.
type screenState int

const (
	scrMain screenState = iota
	scrMoveLot
	scrMoveStation
	scrMoveConfirm
	scrQueryLot
	scrQueryResult
	scrLoggedOff
)

// TerminalSession is one operator session against the legacy system.
type TerminalSession struct {
	sys     *LegacyWIP
	state   screenState
	pendLot string
	last    string
}

// NewSession opens a terminal session showing the main menu.
func (w *LegacyWIP) NewSession() *TerminalSession {
	s := &TerminalSession{sys: w, state: scrMain}
	s.last = s.render("")
	return s
}

// Screen returns the currently displayed screen text.
func (s *TerminalSession) Screen() string { return s.last }

// SendLine types one input line (as a virtual user) and returns the next
// screen.
func (s *TerminalSession) SendLine(input string) string {
	input = strings.TrimSpace(input)
	msg := ""
	switch s.state {
	case scrMain:
		switch input {
		case "1":
			s.state = scrMoveLot
		case "2":
			s.state = scrQueryLot
		case "3":
			s.state = scrLoggedOff
		default:
			msg = "INVALID SELECTION"
		}
	case scrMoveLot:
		if input == "" {
			msg = "LOT ID REQUIRED"
		} else {
			s.pendLot = input
			s.state = scrMoveStation
		}
	case scrMoveStation:
		if input == "" {
			msg = "STATION REQUIRED"
		} else {
			s.sys.mu.Lock()
			rec := s.sys.lots[s.pendLot]
			if rec == nil {
				rec = &lotRecord{}
				s.sys.lots[s.pendLot] = rec
			}
			rec.station = strings.ToUpper(input)
			rec.moves++
			msg = fmt.Sprintf("LOT %s MOVED TO %s - OK", strings.ToUpper(s.pendLot), rec.station)
			s.sys.mu.Unlock()
			s.state = scrMoveConfirm
		}
	case scrMoveConfirm:
		s.state = scrMain
	case scrQueryLot:
		s.sys.mu.Lock()
		rec := s.sys.lots[input]
		if rec == nil {
			msg = fmt.Sprintf("LOT %s NOT FOUND", strings.ToUpper(input))
		} else {
			msg = fmt.Sprintf("LOT %s AT %s MOVES %d", strings.ToUpper(input), rec.station, rec.moves)
		}
		s.sys.mu.Unlock()
		s.state = scrQueryResult
	case scrQueryResult:
		s.state = scrMain
	case scrLoggedOff:
		// Dead session; screen unchanged.
	}
	s.last = s.render(msg)
	return s.last
}

func (s *TerminalSession) render(msg string) string {
	var b strings.Builder
	b.WriteString("==== ACME WIP TRACKING V2.3 ====\n")
	if msg != "" {
		b.WriteString(msg + "\n")
	}
	switch s.state {
	case scrMain:
		b.WriteString("1. MOVE LOT\n2. QUERY LOT\n3. LOGOFF\nSELECT:")
	case scrMoveLot:
		b.WriteString("ENTER LOT ID:")
	case scrMoveStation:
		b.WriteString("ENTER STATION:")
	case scrMoveConfirm, scrQueryResult:
		b.WriteString("PRESS ENTER")
	case scrQueryLot:
		b.WriteString("ENTER LOT ID:")
	case scrLoggedOff:
		b.WriteString("SESSION ENDED")
	}
	return b.String()
}

// ---------------------------------------------------------------------------
// The adapter (virtual user)

// WIPAdapter bridges the bus and the legacy terminal interface.
type WIPAdapter struct {
	bus     *core.Bus
	session *TerminalSession
	sub     *core.Subscription

	mu     sync.Mutex
	moves  uint64
	errs   uint64
	closed bool
	done   chan struct{}
	wg     sync.WaitGroup
}

// WIP subject conventions.
const (
	WIPMoveSubject   = "fab5.wip.move"
	WIPStatusSubject = "fab5.wip.status" // + "." + lot
)

// Adapter errors.
var ErrLegacyRejected = errors.New("adapter: legacy system rejected the operation")

// NewWIPAdapter attaches the adapter: it subscribes to move commands and
// drives the given legacy system through a fresh terminal session.
func NewWIPAdapter(bus *core.Bus, legacy *LegacyWIP) (*WIPAdapter, error) {
	sub, err := bus.Subscribe(WIPMoveSubject)
	if err != nil {
		return nil, err
	}
	if err := bus.Registry().Register(WIPMoveType); err != nil {
		return nil, err
	}
	if err := bus.Registry().Register(WIPStatusType); err != nil {
		return nil, err
	}
	wa := &WIPAdapter{
		bus:     bus,
		session: legacy.NewSession(),
		sub:     sub,
		done:    make(chan struct{}),
	}
	wa.wg.Add(1)
	go wa.loop()
	return wa, nil
}

// Moves returns how many lot moves have been applied to the legacy system.
func (wa *WIPAdapter) Moves() uint64 {
	wa.mu.Lock()
	defer wa.mu.Unlock()
	return wa.moves
}

// Errors returns how many commands failed translation.
func (wa *WIPAdapter) Errors() uint64 {
	wa.mu.Lock()
	defer wa.mu.Unlock()
	return wa.errs
}

// Close detaches the adapter.
func (wa *WIPAdapter) Close() {
	wa.mu.Lock()
	if wa.closed {
		wa.mu.Unlock()
		return
	}
	wa.closed = true
	wa.mu.Unlock()
	close(wa.done)
	wa.sub.Cancel()
	wa.wg.Wait()
}

func (wa *WIPAdapter) loop() {
	defer wa.wg.Done()
	for {
		select {
		case <-wa.done:
			return
		case ev, ok := <-wa.sub.C:
			if !ok {
				return
			}
			if err := wa.applyMove(ev.Value); err != nil {
				wa.mu.Lock()
				wa.errs++
				wa.mu.Unlock()
			}
		}
	}
}

// applyMove drives the terminal like a human operator: menu selection, lot
// id, station, read the confirmation, then runs the query screen to read
// authoritative state back and publishes it. The move counts once the
// terminal confirms it, so Moves covers it before anyone can see its status.
func (wa *WIPAdapter) applyMove(v mop.Value) error {
	cmd, ok := v.(*mop.Object)
	if !ok || !cmd.Type().IsSubtypeOf(WIPMoveType) && cmd.Type().Name() != WIPMoveType.Name() {
		return fmt.Errorf("unexpected value on %s: %w", WIPMoveSubject, ErrBadFeedData)
	}
	lotV, err := cmd.Get("lot")
	if err != nil {
		return err
	}
	stationV, err := cmd.Get("station")
	if err != nil {
		return err
	}
	lot, _ := lotV.(string)
	station, _ := stationV.(string)
	if lot == "" || station == "" {
		return fmt.Errorf("empty lot/station: %w", ErrBadFeedData)
	}

	// Drive the move screens.
	wa.session.SendLine("1")
	wa.session.SendLine(lot)
	screen := wa.session.SendLine(station)
	if !strings.Contains(screen, "- OK") {
		return fmt.Errorf("move screen said %q: %w", firstLine(screen), ErrLegacyRejected)
	}
	wa.mu.Lock()
	wa.moves++
	wa.mu.Unlock()
	wa.session.SendLine("") // acknowledge confirmation

	// Read back through the query screen (the legacy system is the source
	// of truth) and publish the resulting status object.
	wa.session.SendLine("2")
	screen = wa.session.SendLine(lot)
	wa.session.SendLine("") // back to menu
	status, err := parseQueryScreen(screen)
	if err != nil {
		return err
	}
	return wa.bus.Publish(WIPStatusSubject+"."+strings.ToLower(lot), status)
}

// parseQueryScreen scrapes "LOT L42 AT LITHO8 MOVES 3" into a WIPStatus.
func parseQueryScreen(screen string) (*mop.Object, error) {
	for _, line := range strings.Split(screen, "\n") {
		if !strings.HasPrefix(line, "LOT ") {
			continue
		}
		if strings.Contains(line, "NOT FOUND") {
			return nil, fmt.Errorf("%s: %w", line, ErrLegacyRejected)
		}
		fields := strings.Fields(line)
		// LOT <id> AT <station> MOVES <n>
		if len(fields) != 6 || fields[2] != "AT" || fields[4] != "MOVES" {
			return nil, fmt.Errorf("unparseable screen line %q: %w", line, ErrBadFeedData)
		}
		moves, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("moves %q: %w", fields[5], ErrBadFeedData)
		}
		return mop.MustNew(WIPStatusType).
			MustSet("lot", fields[1]).
			MustSet("station", fields[3]).
			MustSet("moves", moves), nil
	}
	return nil, fmt.Errorf("no LOT line on screen: %w", ErrBadFeedData)
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
