package cluster

import (
	"context"
	"testing"
	"time"

	"repro/internal/access"
)

// TestMembershipKeyAllocFree: every optimizer call reads the membership key
// into its plan-cache key, so while the membership stands still reading it
// must allocate nothing. A fence moves the key once — to the same text as
// ever — and the new one is as free to read.
func TestMembershipKeyAllocFree(t *testing.T) {
	ds := uniformDataset(t, 120, 2, 31)
	const victim = 1
	var flaky *flakyShard
	members := make([]Shard, 0, 3)
	for i, sd := range partitioned(t, ds, 3) {
		local := NewLocalShard(sd)
		if i == victim {
			flaky = &flakyShard{LocalShard: local}
			members = append(members, flaky)
		} else {
			members = append(members, local)
		}
	}
	c, err := New(members, Options{Breaker: access.BreakerConfig{FailureThreshold: 1, Cooldown: time.Minute}})
	if err != nil {
		t.Fatal(err)
	}
	read := func() { _ = c.MembershipKey() }
	expectKey(t, c, 0, -1)
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("steady MembershipKey allocates %v, want 0", allocs)
	}

	ring, _ := NewRing(3)
	probe := 0
	for ring.Owner(probe) != victim {
		probe++
	}
	flaky.fail.Store(true)
	if _, err := c.Random(context.Background(), 0, probe); err == nil {
		t.Fatal("the failing shard answered")
	}
	expectKey(t, c, 1, victim)
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("MembershipKey after a fence allocates %v, want 0", allocs)
	}
}
