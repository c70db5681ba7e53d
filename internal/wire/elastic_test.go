package wire

import (
	"reflect"
	"testing"
)

func TestJoinRoundTrip(t *testing.T) {
	a, b := connPair(t)
	want := &Message{Kind: KindJoin, Site: "cloud", Cores: 1}
	if err := a.Send(want); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("join round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestDrainPushAndFlaggedGrantRoundTrip(t *testing.T) {
	a, b := connPair(t)
	// The one-way drain push carries only its kind.
	if err := a.Send(&Message{Kind: KindDrain}); err != nil {
		t.Fatal(err)
	}
	// A drain-flagged grant carries no jobs; the flag alone must
	// survive so a slave whose request raced the push still retires.
	if err := a.Send(&Message{Kind: KindJobGrant, Drain: true}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindDrain {
		t.Fatalf("kind = %v, want drain", got.Kind)
	}
	got, err = b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindJobGrant || !got.Drain {
		t.Fatalf("grant = %+v, want Drain set", got)
	}
	if len(got.Jobs) != 0 {
		t.Fatalf("drain grant carries jobs: %v", got.Jobs)
	}
}

func TestScaleRoundTrip(t *testing.T) {
	a, b := connPair(t)
	if err := a.Send(&Message{Kind: KindScale, Site: "cloud", Target: 6}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != KindScale || got.Site != "cloud" || got.Target != 6 {
		t.Fatalf("scale = %+v, want site=cloud target=6", got)
	}
}

func TestEmptyReturnedSurvivesCodec(t *testing.T) {
	// A drain result that returns no work ("I finished everything
	// granted") must stay distinguishable from a normal end-of-run
	// result: the non-nil empty Returned slice is the drain marker, and
	// the binary codec's presence bits must carry it.
	t.Run("binary", func(t *testing.T) {
		a, b := connPair(t)
		if err := a.Send(&Message{
			Kind:      KindSlaveResult,
			Completed: []int32{3, 4},
			Returned:  []int32{},
		}); err != nil {
			t.Fatal(err)
		}
		got, err := b.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if got.Returned == nil {
			t.Fatal("non-nil empty Returned collapsed to nil in transit")
		}
		if len(got.Returned) != 0 {
			t.Fatalf("Returned = %v, want empty", got.Returned)
		}
	})
}

func TestReturnedPayloadRoundTrip(t *testing.T) {
	a, b := connPair(t)
	want := []int32{10, 11, 12}
	if err := a.Send(&Message{
		Kind:      KindSlaveResult,
		Completed: []int32{9},
		Returned:  want,
		Object:    []byte{0xde, 0xad},
	}); err != nil {
		t.Fatal(err)
	}
	got, err := b.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if got.Returned == nil || !reflect.DeepEqual(got.Returned, want) {
		t.Fatalf("Returned = %v, want %v", got.Returned, want)
	}
}

func TestElasticKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{
		KindJoin: "join", KindDrain: "drain", KindScale: "scale",
	} {
		if k.String() != want {
			t.Fatalf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}
