package condor

import "testing"

func TestClockOrdering(t *testing.T) {
	var c Clock
	var fired []int
	c.Schedule(30, func() { fired = append(fired, 3) })
	c.Schedule(10, func() { fired = append(fired, 1) })
	c.Schedule(20, func() { fired = append(fired, 2) })
	c.RunUntil(100)
	if len(fired) != 3 || fired[0] != 1 || fired[1] != 2 || fired[2] != 3 {
		t.Errorf("fired = %v", fired)
	}
	if c.Now() != 100 {
		t.Errorf("now = %g, want 100", c.Now())
	}
}

func TestClockSimultaneousEventsFIFO(t *testing.T) {
	var c Clock
	var fired []int
	for i := range 5 {
		i := i
		c.Schedule(7, func() { fired = append(fired, i) })
	}
	c.RunUntil(7)
	for i, v := range fired {
		if v != i {
			t.Fatalf("simultaneous events out of order: %v", fired)
		}
	}
}

func TestClockRunUntilStopsBeforeLaterEvents(t *testing.T) {
	var c Clock
	fired := false
	c.Schedule(50, func() { fired = true })
	c.RunUntil(49)
	if fired {
		t.Error("event beyond horizon fired")
	}
	if c.Now() != 49 {
		t.Errorf("now = %g", c.Now())
	}
	c.RunUntil(50)
	if !fired {
		t.Error("event at horizon should fire")
	}
}

func TestClockNestedScheduling(t *testing.T) {
	var c Clock
	var log []float64
	c.Schedule(10, func() {
		log = append(log, c.Now())
		c.Schedule(5, func() { log = append(log, c.Now()) })
	})
	c.RunUntil(100)
	if len(log) != 2 || log[0] != 10 || log[1] != 15 {
		t.Errorf("log = %v", log)
	}
}

func TestClockNegativeDelayClamped(t *testing.T) {
	var c Clock
	c.Schedule(10, func() {})
	c.RunUntil(10)
	fired := false
	c.Schedule(-5, func() { fired = true })
	if !c.Step() || !fired {
		t.Error("negative-delay event should fire immediately")
	}
	if c.Now() != 10 {
		t.Errorf("time went backwards: %g", c.Now())
	}
}

func TestClockStepExhaustion(t *testing.T) {
	var c Clock
	if c.Step() {
		t.Error("empty clock should not step")
	}
	c.Schedule(1, func() {})
	if !c.Step() {
		t.Error("expected one step")
	}
	if c.Step() {
		t.Error("expected exhaustion")
	}
}
