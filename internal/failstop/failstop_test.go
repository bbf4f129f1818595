package failstop

import (
	"errors"
	"testing"

	"repro/internal/spec"
)

func testPlatform() spec.Platform {
	return spec.Platform{Procs: []spec.Proc{
		{ID: "p1", Capacity: spec.Resources{CPU: 8, MemoryKB: 1024, PowerMW: 1000},
			LowPowerCapacity: spec.Resources{CPU: 2, MemoryKB: 512, PowerMW: 200}},
		{ID: "p2", Capacity: spec.Resources{CPU: 4, MemoryKB: 512, PowerMW: 500}},
	}}
}

func TestFailStopSemantics(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)

	// Commit some state in frame 1, stage more in frame 2, then fail.
	p.Stable().PutString("alt", "1000")
	p.Stable().Commit()
	p.Stable().PutString("alt", "2000") // staged: lost at failure
	if err := p.PutVolatile("scratch", []byte("x")); err != nil {
		t.Fatalf("PutVolatile: %v", err)
	}

	p.Fail(2)

	if p.State() != StateFailed {
		t.Fatalf("state = %v, want failed", p.State())
	}
	if p.Alive() {
		t.Fatal("failed processor reports alive")
	}
	if p.FailedAtFrame() != 2 {
		t.Errorf("FailedAtFrame = %d, want 2", p.FailedAtFrame())
	}
	// Volatile lost.
	if _, ok := p.GetVolatile("scratch"); ok {
		t.Error("volatile storage survived failure")
	}
	// Stable: committed state preserved, staged write lost.
	if v, _ := p.Stable().GetString("alt"); v != "1000" {
		t.Errorf("stable alt = %q after failure, want committed value 1000", v)
	}
	if n := p.Stable().PendingWrites(); n != 0 {
		t.Errorf("staged writes survived failure: %d", n)
	}
	// Capacity drops to zero.
	if c := p.EffectiveCapacity(); c != (spec.Resources{}) {
		t.Errorf("failed capacity = %+v, want zero", c)
	}
	// Double failure is a no-op.
	p.Fail(5)
	if p.FailedAtFrame() != 2 {
		t.Errorf("double-fail changed FailedAtFrame to %d", p.FailedAtFrame())
	}
}

func TestRepairPreservesStableOnly(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	p.Stable().PutString("k", "v")
	p.Stable().Commit()
	if err := p.PutVolatile("vol", []byte("x")); err != nil {
		t.Fatal(err)
	}
	p.Fail(1)
	p.Repair()

	if !p.Alive() {
		t.Fatal("repaired processor not alive")
	}
	if _, ok := p.GetVolatile("vol"); ok {
		t.Error("volatile storage survived fail+repair")
	}
	if v, _ := p.Stable().GetString("k"); v != "v" {
		t.Errorf("stable k = %q after repair, want v", v)
	}
}

func TestLowPowerMode(t *testing.T) {
	full := spec.Resources{CPU: 8, MemoryKB: 1024, PowerMW: 1000}
	low := spec.Resources{CPU: 2, MemoryKB: 512, PowerMW: 200}
	p := NewProcessor("p1", full, low, nil)

	if c := p.EffectiveCapacity(); c != full {
		t.Errorf("running capacity = %+v, want %+v", c, full)
	}
	if err := p.SetLowPower(true); err != nil {
		t.Fatalf("SetLowPower: %v", err)
	}
	if p.State() != StateLowPower {
		t.Errorf("state = %v, want low-power", p.State())
	}
	if !p.Alive() {
		t.Error("low-power processor should be alive")
	}
	if c := p.EffectiveCapacity(); c != low {
		t.Errorf("low-power capacity = %+v, want %+v", c, low)
	}
	if err := p.SetLowPower(false); err != nil {
		t.Fatalf("SetLowPower(false): %v", err)
	}
	if c := p.EffectiveCapacity(); c != full {
		t.Errorf("restored capacity = %+v, want %+v", c, full)
	}

	p.Fail(1)
	if err := p.SetLowPower(true); !errors.Is(err, ErrFailed) {
		t.Errorf("SetLowPower on failed proc = %v, want ErrFailed", err)
	}
}

func TestPowerOff(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	p.Stable().PutString("k", "v")
	p.Stable().Commit()
	p.PowerOff()
	if p.State() != StateOff {
		t.Fatalf("state = %v, want off", p.State())
	}
	if p.Alive() {
		t.Error("powered-off processor reports alive")
	}
	if v, _ := p.Stable().GetString("k"); v != "v" {
		t.Error("stable storage lost on power off")
	}
	if err := p.PutVolatile("k", nil); !errors.Is(err, ErrFailed) {
		t.Errorf("PutVolatile on off proc = %v, want ErrFailed", err)
	}
	// PowerOff after failure must not mask the failed state.
	q := NewProcessor("q", spec.Resources{}, spec.Resources{}, nil)
	q.Fail(1)
	q.PowerOff()
	if q.State() != StateFailed {
		t.Errorf("PowerOff changed failed state to %v", q.State())
	}
}

func TestVolatileRoundTrip(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	in := []byte("data")
	if err := p.PutVolatile("k", in); err != nil {
		t.Fatal(err)
	}
	in[0] = 'X'
	out, ok := p.GetVolatile("k")
	if !ok || string(out) != "data" {
		t.Fatalf("GetVolatile = %q, %v; want data (copied)", out, ok)
	}
	out[0] = 'Y'
	out2, _ := p.GetVolatile("k")
	if string(out2) != "data" {
		t.Fatal("GetVolatile returned aliased slice")
	}
	if _, ok := p.GetVolatile("missing"); ok {
		t.Error("missing volatile key found")
	}
}

func TestSelfCheckingPairAgreement(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	sc := NewSelfCheckingPair(p)
	out, err := sc.Run(1,
		func() ([]byte, error) { return []byte("result"), nil },
		func() ([]byte, error) { return []byte("result"), nil },
	)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if string(out) != "result" {
		t.Errorf("out = %q", out)
	}
	if !p.Alive() {
		t.Error("agreement killed the processor")
	}
}

func TestSelfCheckingPairDivergenceHaltsProcessor(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	sc := NewSelfCheckingPair(p)
	_, err := sc.Run(7,
		func() ([]byte, error) { return []byte("a"), nil },
		func() ([]byte, error) { return []byte("b"), nil },
	)
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("err = %v, want ErrDivergence", err)
	}
	if p.State() != StateFailed {
		t.Errorf("state after divergence = %v, want failed", p.State())
	}
	if p.FailedAtFrame() != 7 {
		t.Errorf("FailedAtFrame = %d, want 7", p.FailedAtFrame())
	}
	// Further runs refuse with ErrFailed.
	if _, err := sc.Run(8, nil, nil); !errors.Is(err, ErrFailed) {
		t.Errorf("Run on failed proc = %v, want ErrFailed", err)
	}
}

func TestSelfCheckingPairReplicaError(t *testing.T) {
	p := NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil)
	sc := NewSelfCheckingPair(p)
	boom := errors.New("boom")
	_, err := sc.Run(1,
		func() ([]byte, error) { return nil, boom },
		func() ([]byte, error) { return []byte("ok"), nil },
	)
	if !errors.Is(err, ErrDivergence) {
		t.Fatalf("err = %v, want ErrDivergence", err)
	}
	if p.Alive() {
		t.Error("replica error did not halt processor")
	}
}

// TestSelfCheckingPairReplicaPanicReachesCaller pins that both replicas run
// in the caller's goroutine: a panic in replica B reaches the caller's
// recover, where an isolation boundary such as the fleet's shard worker can
// quarantine the tenant, instead of killing the process.
func TestSelfCheckingPairReplicaPanicReachesCaller(t *testing.T) {
	sc := NewSelfCheckingPair(NewProcessor("p1", spec.Resources{CPU: 1}, spec.Resources{}, nil))
	var got any
	func() {
		defer func() { got = recover() }()
		_, _ = sc.Run(1,
			func() ([]byte, error) { return []byte("ok"), nil },
			func() ([]byte, error) { panic("replica b") },
		)
	}()
	if got != "replica b" {
		t.Errorf("recovered %v, want replica B's panic", got)
	}
}

func TestPoolLookupAndOrder(t *testing.T) {
	pool := NewPool(testPlatform())
	procs := pool.Procs()
	if len(procs) != 2 || procs[0].ID() != "p1" || procs[1].ID() != "p2" {
		t.Fatalf("Procs order wrong: %v, %v", procs[0].ID(), procs[1].ID())
	}
	if _, err := pool.Proc("p1"); err != nil {
		t.Errorf("Proc(p1): %v", err)
	}
	if _, err := pool.Proc("ghost"); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("Proc(ghost) = %v, want ErrUnknownProc", err)
	}
}

func TestPoolFailRepairAlive(t *testing.T) {
	pool := NewPool(testPlatform())
	if err := pool.Fail("p2", 3); err != nil {
		t.Fatal(err)
	}
	alive := pool.Alive()
	if len(alive) != 1 || alive[0] != "p1" {
		t.Fatalf("Alive = %v, want [p1]", alive)
	}
	if err := pool.Repair("p2"); err != nil {
		t.Fatal(err)
	}
	if len(pool.Alive()) != 2 {
		t.Fatal("repair did not restore p2")
	}
	if err := pool.Fail("ghost", 1); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("Fail(ghost) = %v", err)
	}
	if err := pool.Repair("ghost"); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("Repair(ghost) = %v", err)
	}
}

func TestPoolAliveCapacity(t *testing.T) {
	pool := NewPool(testPlatform())
	want := spec.Resources{CPU: 12, MemoryKB: 1536, PowerMW: 1500}
	if got := pool.AliveCapacity(); got != want {
		t.Fatalf("AliveCapacity = %+v, want %+v", got, want)
	}
	if err := pool.Fail("p2", 1); err != nil {
		t.Fatal(err)
	}
	want = spec.Resources{CPU: 8, MemoryKB: 1024, PowerMW: 1000}
	if got := pool.AliveCapacity(); got != want {
		t.Fatalf("AliveCapacity after failure = %+v, want %+v", got, want)
	}
	p1, _ := pool.Proc("p1")
	if err := p1.SetLowPower(true); err != nil {
		t.Fatal(err)
	}
	want = spec.Resources{CPU: 2, MemoryKB: 512, PowerMW: 200}
	if got := pool.AliveCapacity(); got != want {
		t.Fatalf("AliveCapacity low-power = %+v, want %+v", got, want)
	}
}

func TestPollStableOfFailedProcessor(t *testing.T) {
	pool := NewPool(testPlatform())
	p1, _ := pool.Proc("p1")
	p1.Stable().PutString("fcs/surfaces", "centered")
	p1.Stable().Commit()
	p1.Stable().PutString("fcs/surfaces", "deflected") // staged, will be lost

	if err := pool.Fail("p1", 9); err != nil {
		t.Fatal(err)
	}
	snap, err := pool.PollStable("p1")
	if err != nil {
		t.Fatalf("PollStable: %v", err)
	}
	if string(snap["fcs/surfaces"]) != "centered" {
		t.Errorf("polled state = %q, want last committed value", snap["fcs/surfaces"])
	}
	if _, err := pool.PollStable("ghost"); !errors.Is(err, ErrUnknownProc) {
		t.Errorf("PollStable(ghost) = %v", err)
	}
}

func TestStateString(t *testing.T) {
	tests := []struct {
		s    State
		want string
	}{
		{StateRunning, "running"},
		{StateLowPower, "low-power"},
		{StateFailed, "failed"},
		{StateOff, "off"},
		{State(42), "state(42)"},
	}
	for _, tt := range tests {
		if got := tt.s.String(); got != tt.want {
			t.Errorf("State(%d).String() = %q, want %q", int(tt.s), got, tt.want)
		}
	}
}
