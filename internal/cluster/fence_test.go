package cluster

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/access"
)

// fenceOwner is one owner of the shared breaker state machine, driven
// through its own surface: a coordinator through shard accesses, a
// BreakerSet through Acquire/Record/Release.
type fenceOwner interface {
	// access performs one access that succeeds or fails, reporting whether
	// the circuit let it through.
	access(ctx context.Context, ok bool) (granted bool)
	// begin starts an access the circuit lets through now; land reports
	// the outcome of the oldest one begun.
	begin(t *testing.T)
	land(ok bool)
	state() access.BreakerState
}

// gatedShard fails its probes while fail is set, and holds the next probe
// after hold is set until its outcome is handed in on the channel it
// publishes to held.
type gatedShard struct {
	*LocalShard
	fail atomic.Bool
	hold atomic.Bool
	held chan chan bool
}

func (g *gatedShard) Random(ctx context.Context, pred, obj int) (float64, error) {
	ok := !g.fail.Load()
	if g.hold.Swap(false) {
		reply := make(chan bool)
		g.held <- reply
		ok = <-reply
	}
	if !ok {
		return 0, errFlaky
	}
	return g.LocalShard.Random(ctx, pred, obj)
}

type coordinatorOwner struct {
	c      *Coordinator
	victim *gatedShard
	obj    int // an object the victim shard owns
	landed []func(ok bool)
}

func (o *coordinatorOwner) access(ctx context.Context, ok bool) bool {
	o.victim.fail.Store(!ok)
	_, err := o.c.Random(ctx, 0, o.obj)
	return !errors.Is(err, ErrShardDown)
}

func (o *coordinatorOwner) begin(t *testing.T) {
	o.victim.hold.Store(true)
	done := make(chan error)
	go func() {
		_, err := o.c.Random(context.Background(), 0, o.obj)
		done <- err
	}()
	select {
	case reply := <-o.victim.held:
		o.landed = append(o.landed, func(ok bool) { reply <- ok; <-done })
	case err := <-done:
		t.Fatalf("the access to be held never reached the shard: %v", err)
	}
}

func (o *coordinatorOwner) land(ok bool) {
	o.landed[0](ok)
	o.landed = o.landed[1:]
}

func (o *coordinatorOwner) state() access.BreakerState { return o.c.fence.State(1) }

type breakerOwner struct{ b *access.BreakerSet }

func (o *breakerOwner) access(ctx context.Context, ok bool) bool {
	if !o.b.Acquire(access.RandomAccess, 0) {
		return false
	}
	if ctx.Err() != nil {
		o.b.Release(access.RandomAccess, 0)
	} else {
		o.b.Record(access.RandomAccess, 0, ok)
	}
	return true
}

func (o *breakerOwner) begin(t *testing.T) {
	if !o.b.Acquire(access.RandomAccess, 0) {
		t.Fatal("the access to be held was refused")
	}
}

func (o *breakerOwner) land(ok bool) {
	o.b.Record(access.RandomAccess, 0, ok)
}

func (o *breakerOwner) state() access.BreakerState { return o.b.State(access.RandomAccess, 0) }

// TestOneBreakerTwoOwners: a coordinator's shard fence and a session
// BreakerSet circuit are one state machine. The same script under the same
// fake clock — failures up to the threshold, refusals, cooldowns, a failed,
// a cancelled and a successful probe, and outcomes of accesses admitted
// before the circuit opened that land after — must grant and refuse the
// same accesses and leave the same state at every step. A late outcome
// neither closes an open circuit nor restarts its cooldown.
func TestOneBreakerTwoOwners(t *testing.T) {
	const cooldown = time.Minute
	clock := time.Unix(0, 0)
	cfg := access.BreakerConfig{FailureThreshold: 2, Cooldown: cooldown, Now: func() time.Time { return clock }}

	ds := uniformDataset(t, 90, 2, 43)
	parts := partitioned(t, ds, 3)
	victim := &gatedShard{LocalShard: NewLocalShard(parts[1]), held: make(chan chan bool)}
	coord, err := New([]Shard{NewLocalShard(parts[0]), victim, NewLocalShard(parts[2])}, Options{Breaker: cfg})
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]fenceOwner{
		"coordinator": &coordinatorOwner{c: coord, victim: victim, obj: parts[1].Global[0]},
		"breakerset":  &breakerOwner{b: access.NewBreakerSet(1, cfg)},
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	ctx := context.Background()
	const (
		closed   = access.BreakerClosed
		open     = access.BreakerOpen
		halfOpen = access.BreakerHalfOpen
	)
	steps := []struct {
		name    string
		advance time.Duration
		act     func(o fenceOwner) bool
		granted bool
		want    access.BreakerState
	}{
		{"first failure", 0, func(o fenceOwner) bool { return o.access(ctx, false) }, true, closed},
		{"second failure opens", 0, func(o fenceOwner) bool { return o.access(ctx, false) }, true, open},
		{"refused while open", 0, func(o fenceOwner) bool { return o.access(ctx, true) }, false, open},
		{"cooldown passes", cooldown, func(fenceOwner) bool { return true }, true, open},
		{"probe fails", 0, func(o fenceOwner) bool { return o.access(ctx, false) }, true, open},
		{"refused in the new cooldown", 0, func(o fenceOwner) bool { return o.access(ctx, true) }, false, open},
		{"probe under a cancelled context", cooldown, func(o fenceOwner) bool { return o.access(cancelled, true) }, true, halfOpen},
		{"probe succeeds", 0, func(o fenceOwner) bool { return o.access(ctx, true) }, true, closed},
		{"two accesses begin", 0, func(o fenceOwner) bool { o.begin(t); o.begin(t); return true }, true, closed},
		{"failures open again", 0, func(o fenceOwner) bool { return o.access(ctx, false) && o.access(ctx, false) }, true, open},
		{"a success lands on the open circuit", 0, func(o fenceOwner) bool { o.land(true); return true }, true, open},
		{"still refused", 0, func(o fenceOwner) bool { return o.access(ctx, true) }, false, open},
		{"a failure lands on the open circuit", cooldown / 2, func(o fenceOwner) bool { o.land(false); return true }, true, open},
		{"probe at the first cooldown's end succeeds", cooldown / 2, func(o fenceOwner) bool { return o.access(ctx, true) }, true, closed},
	}
	for _, step := range steps {
		clock = clock.Add(step.advance)
		for _, name := range []string{"coordinator", "breakerset"} {
			o := owners[name]
			if granted := step.act(o); granted != step.granted {
				t.Fatalf("%s: %s granted = %v, want %v", step.name, name, granted, step.granted)
			}
			if got := o.state(); got != step.want {
				t.Fatalf("%s: %s circuit %s, want %s", step.name, name, got, step.want)
			}
		}
		wantUp := 2 // a half-open shard still reads as down
		if step.want == closed {
			wantUp = 3
		}
		if up := coord.Stats().ShardsUp; up != wantUp {
			t.Fatalf("%s: %d shards up with the victim's circuit %s, want %d", step.name, up, step.want, wantUp)
		}
	}
	// Two fences and two recoveries; the half-open moves between them
	// left the epoch alone.
	if st := coord.Stats(); st.Epoch != 4 {
		t.Errorf("epoch %d after two fences and two recoveries, want 4", st.Epoch)
	}
}
