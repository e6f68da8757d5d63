package tevlog

import (
	"errors"
	"testing"
	"testing/quick"
)

// TestChainVerifierMatchesRechain: Last after each Add equals the hash
// Rechain stores for that entry.
func TestChainVerifierMatchesRechain(t *testing.T) {
	s := testSigner(t, "a")
	l := buildLog(s, 25)
	entries := l.All()
	rechained := make([]Entry, len(entries))
	copy(rechained, entries)
	if err := Rechain(Hash{}, rechained); err != nil {
		t.Fatal(err)
	}
	v := NewChainVerifier(Hash{}, nil, NewSigStage(testKeys(s)))
	for i := range entries {
		if err := v.Add(&entries[i]); err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if v.Last() != rechained[i].Hash {
			t.Fatalf("entry %d: streaming hash differs from Rechain", i)
		}
	}
}

// TestChainVerifierEquivalence: for honest and arbitrarily mutated
// segments, the streaming verifier returns the same verdict — down to the
// error string — as the batch VerifySegment (which wraps it, but this
// drives the two call patterns independently).
func TestChainVerifierEquivalence(t *testing.T) {
	s := testSigner(t, "a")
	ks := testKeys(s)
	l := buildLog(s, 30)
	head, err := l.LastAuthenticator()
	if err != nil {
		t.Fatal(err)
	}
	mid, err := l.Authenticator(17)
	if err != nil {
		t.Fatal(err)
	}
	auths := []Authenticator{mid, head}

	f := func(posRaw uint16, mutation uint8, flip uint8) bool {
		seg := l.All()
		pos := int(posRaw) % (len(seg) - 1)
		switch mutation % 5 {
		case 0: // honest
		case 1: // flip a content byte
			seg[pos].Content = append([]byte(nil), seg[pos].Content...)
			seg[pos].Content[0] ^= flip | 1
		case 2: // drop an entry
			seg = append(seg[:pos:pos], seg[pos+1:]...)
		case 3: // swap neighbours
			seg[pos], seg[pos+1] = seg[pos+1], seg[pos]
		case 4: // truncate
			seg = seg[:pos+1]
		}
		batchErr := VerifySegment(Hash{}, seg, auths, ks)

		v := NewChainVerifier(Hash{}, auths, NewSigStage(ks))
		var streamErr error
		for i := range seg {
			if streamErr = v.Add(&seg[i]); streamErr != nil {
				break
			}
		}
		if streamErr == nil {
			streamErr = v.Finish()
		}
		if (batchErr == nil) != (streamErr == nil) {
			return false
		}
		if batchErr != nil && batchErr.Error() != streamErr.Error() {
			t.Logf("batch: %v\nstream: %v", batchErr, streamErr)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestChainVerifierEmptySegment(t *testing.T) {
	s := testSigner(t, "a")
	v := NewChainVerifier(Hash{}, nil, NewSigStage(testKeys(s)))
	if err := v.Finish(); err == nil {
		t.Fatal("empty segment accepted")
	}
}

func TestChainVerifierStickyError(t *testing.T) {
	s := testSigner(t, "a")
	l := buildLog(s, 5)
	entries := l.All()
	v := NewChainVerifier(Hash{}, nil, NewSigStage(testKeys(s)))
	if err := v.Add(&entries[0]); err != nil {
		t.Fatal(err)
	}
	if err := v.Add(&entries[3]); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("gap accepted: %v", err)
	}
	if err := v.Add(&entries[1]); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("error not sticky: %v", err)
	}
	if err := v.Finish(); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("Finish lost the chain error: %v", err)
	}
}
