package wdm

import (
	"testing"

	"wavedag/internal/digraph"
)

// These tests pin the publish-on-every-path contract wavedaglint's
// publish analyzer enforces: a mutation of engine state under the mutex
// must reach publishLocked() before the method returns, even when a
// later step of the same operation errors out. The trigger is a
// component session desynchronized from the global topology — the
// global cut/repair succeeds, the component storm then fails — which
// historically returned without republishing, leaving lock-free readers
// on a snapshot that disagreed with the mutex-guarded live state.

// desyncArc returns a global arc owned by a plain component, with its
// component and local identifier.
func desyncArc(t *testing.T, eng *ShardedEngine) (digraph.ArcID, *engineComponent, digraph.ArcID) {
	t.Helper()
	for a := range eng.arcComp {
		c := eng.comps[eng.arcComp[a]]
		if !c.twoLevel() {
			return digraph.ArcID(a), c, eng.arcLoc[a]
		}
	}
	t.Skip("no plain component in this topology")
	return 0, nil, 0
}

func TestFailArcPublishesOnStormError(t *testing.T) {
	net := multiComponentNetwork(t, 2, 33)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ga, c, la := desyncArc(t, eng)

	// Cut the arc in the component's private view only: the next engine
	// FailArc cuts the global topology, then errors in the storm.
	if _, err := c.plain.sess.FailArc(la); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.FailArc(ga); err == nil {
		t.Fatal("engine FailArc succeeded despite desynchronized component")
	}

	// The global cut happened, so it must have been published: the
	// lock-free snapshot read and the live state must agree.
	live := liveStats(eng).FailedArcs
	if got := eng.NumFailedArcs(); got != live {
		t.Fatalf("snapshot NumFailedArcs=%d, live=%d: FailArc error path did not publish", got, live)
	}
	if live != 1 {
		t.Fatalf("live NumFailedArcs=%d, want 1", live)
	}
	if eng.Stats().Cuts != 1 {
		t.Fatalf("Stats().Cuts=%d, want 1 (the cut did land)", eng.Stats().Cuts)
	}
}

func TestRestoreArcPublishesOnSweepError(t *testing.T) {
	net := multiComponentNetwork(t, 2, 34)
	eng, err := net.NewShardedEngine()
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	ga, c, la := desyncArc(t, eng)

	// Cut globally (both views agree), then repair the component's
	// private view only: the next engine RestoreArc repairs the global
	// topology, then errors in the re-admission sweep.
	if _, err := eng.FailArc(ga); err != nil {
		t.Fatal(err)
	}
	if _, err := c.plain.sess.RestoreArc(la); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.RestoreArc(ga); err == nil {
		t.Fatal("engine RestoreArc succeeded despite desynchronized component")
	}

	// The global repair happened, so it must have been published.
	live := liveStats(eng).FailedArcs
	if got := eng.NumFailedArcs(); got != live {
		t.Fatalf("snapshot NumFailedArcs=%d, live=%d: RestoreArc error path did not publish", got, live)
	}
	if live != 0 {
		t.Fatalf("live NumFailedArcs=%d, want 0", live)
	}
}
