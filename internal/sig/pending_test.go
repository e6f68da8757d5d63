package sig

import (
	"bytes"
	"testing"
	"time"
)

func TestPendingWaitSeesTheSignature(t *testing.T) {
	signer := MustGenerateRSA("n", DefaultKeyBits, "pending")
	msg := []byte("commitment")
	want := signer.Sign(msg)
	for _, helper := range []string{"a worker signs", "the waiter signs"} {
		slot := make([]byte, signer.SigLen())
		var blocked []time.Duration
		p := Defer(signer, msg, slot, func(d time.Duration) { blocked = append(blocked, d) })
		if helper == "a worker signs" {
			claimed := make(chan struct{})
			go func() {
				// Claim the job before the waiter can, then take a while.
				p.claimed.Store(true)
				close(claimed)
				time.Sleep(5 * time.Millisecond)
				SignInto(signer, msg, slot)
				close(p.done)
			}()
			<-claimed
		}
		p.Wait()
		if !bytes.Equal(slot, want) {
			t.Fatalf("%s: Wait returned before the signature was in the slot", helper)
		}
		if len(blocked) != 1 || blocked[0] <= 0 {
			t.Fatalf("%s: a Wait that found no signature reported %v", helper, blocked)
		}
		p.Wait()
		p.Run() // a worker that comes late finds nothing to do
		if len(blocked) != 1 || !bytes.Equal(slot, want) {
			t.Fatalf("%s: a complete handle did something again", helper)
		}
	}
	var none *Pending
	none.Wait() // complete when requested: nothing to wait for
}

func TestSignIntoRejectsAWrongSlot(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a 96-byte signature went into a 95-byte slot")
		}
	}()
	SignInto(SizedSigner{Node: "n", Size: 96}, []byte("m"), make([]byte, 95))
}

func TestOnlyRealCryptographyOffloads(t *testing.T) {
	if !Offloads(MustGenerateRSA("n", DefaultKeyBits, "offload")) {
		t.Error("RSA signing stays on the caller's goroutine")
	}
	for _, s := range []Signer{NullSigner{Node: "n"}, SizedSigner{Node: "n", Size: 96}} {
		if Offloads(s) {
			t.Errorf("%T is handed off", s)
		}
	}
}

func TestMustGenerateRSAAllKeepsOrder(t *testing.T) {
	ids := []NodeID{"c", "a", "b"}
	keys := MustGenerateRSAAll(ids, DefaultKeyBits, "all")
	for i, k := range keys {
		if k.ID() != ids[i] || !k.Public().Verify([]byte("m"), k.Sign([]byte("m"))) {
			t.Fatalf("key %d is for %q, want a working key for %q", i, k.ID(), ids[i])
		}
	}
}
