package frame

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// countingTask records the frames it has seen.
type countingTask struct {
	id     string
	frames []int64
	err    error // returned from every Tick when non-nil
}

func (c *countingTask) TaskID() string { return c.id }

func (c *countingTask) Tick(ctx Context) error {
	c.frames = append(c.frames, ctx.Frame)
	return c.err
}

func newScheduler(t *testing.T) *Scheduler {
	t.Helper()
	s, err := NewScheduler(time.Millisecond)
	if err != nil {
		t.Fatalf("NewScheduler: %v", err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestNewSchedulerRejectsBadFrameLen(t *testing.T) {
	if _, err := NewScheduler(0); err == nil {
		t.Error("zero frame length accepted")
	}
	if _, err := NewScheduler(-time.Second); err == nil {
		t.Error("negative frame length accepted")
	}
}

func TestAllTasksSeeEveryFrameInOrder(t *testing.T) {
	s := newScheduler(t)
	tasks := make([]*countingTask, 4)
	for i := range tasks {
		tasks[i] = &countingTask{id: fmt.Sprintf("t%d", i)}
		if err := s.AddTask(tasks[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(10); err != nil {
		t.Fatal(err)
	}
	for _, task := range tasks {
		got := task.frames
		if len(got) != 10 {
			t.Fatalf("task %s saw %d frames, want 10", task.id, len(got))
		}
		for i, f := range got {
			if f != int64(i) {
				t.Fatalf("task %s frame %d out of order: got %d", task.id, i, f)
			}
		}
	}
	if s.Frame() != 10 {
		t.Errorf("Frame() = %d, want 10", s.Frame())
	}
	if s.Stats().Frames != 10 {
		t.Errorf("Stats().Frames = %d, want 10", s.Stats().Frames)
	}
}

func TestBarrierSynchrony(t *testing.T) {
	// No task may start frame k+1 before every task finished frame k.
	s := newScheduler(t)
	var inFrame atomic.Int64
	const tasks = 8
	for i := 0; i < tasks; i++ {
		id := fmt.Sprintf("t%d", i)
		if err := s.AddTask(taskFunc{id: id, fn: func(ctx Context) error {
			if n := inFrame.Add(1); n > tasks {
				return fmt.Errorf("%d concurrent ticks, want <= %d", n, tasks)
			}
			defer inFrame.Add(-1)
			return nil
		}}); err != nil {
			t.Fatal(err)
		}
	}
	barrierChecked := 0
	s.AddCommitHook(func(ctx Context) error {
		// At commit time every task must have finished the frame.
		if n := inFrame.Load(); n != 0 {
			return fmt.Errorf("commit hook ran with %d tasks still in frame", n)
		}
		barrierChecked++
		return nil
	})
	if err := s.Run(50); err != nil {
		t.Fatal(err)
	}
	if barrierChecked != 50 {
		t.Errorf("commit hook ran %d times, want 50", barrierChecked)
	}
}

// taskFunc adapts a function to Task.
type taskFunc struct {
	id string
	fn func(Context) error
}

func (t taskFunc) TaskID() string         { return t.id }
func (t taskFunc) Tick(ctx Context) error { return t.fn(ctx) }

func TestCommitHooksRunInOrder(t *testing.T) {
	s := newScheduler(t)
	var order []int
	for i := 0; i < 3; i++ {
		s.AddCommitHook(func(ctx Context) error {
			order = append(order, i)
			return nil
		})
	}
	if err := s.Step(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Errorf("hook order = %v, want [0 1 2]", order)
	}
}

func TestTaskErrorReportedAndFrameAdvances(t *testing.T) {
	s := newScheduler(t)
	boom := errors.New("boom")
	bad := &countingTask{id: "bad", err: boom}
	good := &countingTask{id: "good"}
	if err := s.AddTask(bad); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(good); err != nil {
		t.Fatal(err)
	}
	err := s.Step()
	if !errors.Is(err, boom) {
		t.Fatalf("Step err = %v, want wrapped boom", err)
	}
	if s.Frame() != 1 {
		t.Errorf("frame did not advance after task error: %d", s.Frame())
	}
	if len(good.frames) != 1 {
		t.Error("good task was not ticked in the failing frame")
	}
	// Scheduler remains usable.
	bad.err = nil
	if err := s.Step(); err != nil {
		t.Fatalf("Step after recovery: %v", err)
	}
}

func TestCommitHookError(t *testing.T) {
	s := newScheduler(t)
	boom := errors.New("hook boom")
	s.AddCommitHook(func(ctx Context) error { return boom })
	if err := s.Step(); !errors.Is(err, boom) {
		t.Fatalf("Step err = %v, want hook boom", err)
	}
}

func TestDuplicateAndUnknownTask(t *testing.T) {
	s := newScheduler(t)
	if err := s.AddTask(&countingTask{id: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := s.AddTask(&countingTask{id: "a"}); !errors.Is(err, ErrDuplicateTask) {
		t.Errorf("duplicate AddTask = %v, want ErrDuplicateTask", err)
	}
}

func TestAddTaskMidRun(t *testing.T) {
	s := newScheduler(t)
	a := &countingTask{id: "a"}
	if err := s.AddTask(a); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	late := &countingTask{id: "late"}
	if err := s.AddTask(late); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(3); err != nil {
		t.Fatal(err)
	}
	got := late.frames
	if len(got) != 3 || got[0] != 2 {
		t.Errorf("late task saw frames %v, want [2 3 4]", got)
	}
}

func TestRunUntil(t *testing.T) {
	s := newScheduler(t)
	fired, err := s.RunUntil(100, func() bool { return s.Frame() >= 7 })
	if err != nil {
		t.Fatal(err)
	}
	if !fired {
		t.Error("RunUntil did not fire")
	}
	if s.Frame() != 7 {
		t.Errorf("Frame = %d, want 7", s.Frame())
	}
	fired, err = s.RunUntil(3, func() bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("RunUntil fired without condition")
	}
}

func TestVirtualTime(t *testing.T) {
	ctx := Context{Frame: 50, Len: 20 * time.Millisecond}
	if got := ctx.VirtualTime(); got != time.Second {
		t.Errorf("VirtualTime = %v, want 1s", got)
	}
}

func TestPacedModeKeepsWallClock(t *testing.T) {
	s, err := NewScheduler(5*time.Millisecond, WithPacing())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	start := time.Now()
	if err := s.Run(4); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 18*time.Millisecond {
		t.Errorf("4 paced 5ms frames took %v, want >= ~20ms", elapsed)
	}
}

func TestPacedOverrunCounted(t *testing.T) {
	s, err := NewScheduler(time.Millisecond, WithPacing())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.AddTask(taskFunc{id: "slow", fn: func(ctx Context) error {
		time.Sleep(3 * time.Millisecond)
		return nil
	}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(2); err != nil {
		t.Fatal(err)
	}
	if s.Stats().Overruns == 0 {
		t.Error("overruns not counted for slow task")
	}
	if s.Stats().MaxFrameWork < 3*time.Millisecond {
		t.Errorf("MaxFrameWork = %v, want >= 3ms", s.Stats().MaxFrameWork)
	}
}

func TestClosedSchedulerRefusesEverything(t *testing.T) {
	s := newScheduler(t)
	if err := s.AddTask(&countingTask{id: "a"}); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s.Close() // idempotent
	if err := s.Step(); !errors.Is(err, ErrClosed) {
		t.Errorf("Step after close = %v", err)
	}
	if err := s.AddTask(&countingTask{id: "b"}); !errors.Is(err, ErrClosed) {
		t.Errorf("AddTask after close = %v", err)
	}
}
