// Package sig provides the signing and identity primitives the AVMM relies
// on (paper §4.1, assumption 3): each party holds a certified keypair, and
// neither signatures nor certificates can be forged.
//
// The paper's prototype uses 768-bit RSA keys; modern crypto/rsa rejects
// keys that small, so real keypairs here are 1024-bit (DefaultKeyBits)
// while wire-size accounting for the paper's figures uses PaperSigBytes.
// A NullSigner implements the avmm-nosig evaluation configuration, in
// which the tamper-evident machinery runs but no cryptographic signatures
// are produced.
//
// Key generation draws from a seeded stream. A key of DefaultKeyBits is
// built in this package from that stream alone, so it is a function of the
// seed and the principal: the same key on every run. A key of any other
// size comes from rsa.GenerateKey, which mixes extra randomness in, so the
// same seed does not reproduce it. The protocols never rely on
// regenerating a key — verifiers travel through the KeyStore and
// certificates.
//
// A key of DefaultKeyBits has public exponent e = 3, so a verification
// is three Montgomery products where e = 65537 takes eighteen, and the
// audit, which is mostly verification, is that much cheaper. Such a key is
// still RSA-1024 with PKCS#1 v1.5 and SHA-256, which crypto/rsa and
// OpenSSL accept. A small exponent is safe for signatures under a verifier
// that re-encodes the expected block and compares every byte of it (RFC
// 8017 §8.2.2), as both rsa.VerifyPKCS1v15 and this package's verify do:
// Bleichenbacher's 2006 forgery for e = 3 needs a verifier that parses the
// padding and ignores what follows the hash, and the low-exponent attacks
// Boneh surveys ("Twenty Years of Attacks on the RSA Cryptosystem", 1999)
// are against encryption, not signatures. FIPS 186-5 requires e > 2¹⁶,
// but a 1024-bit key is outside FIPS already (see below on fips140=only).
// Every prime is drawn ≡ 5 (mod 6), so 3 never divides p−1 and cubing is a
// bijection modulo it. A key with e = 65537, as this package made them
// before, signs and verifies exactly as it did.
//
// # The RSA-1024 signing kernel
//
// GenerateRSA builds every key of DefaultKeyBits from three primes of 342,
// 341 and 341 bits (multi-prime RSA, RFC 8017 §3; Boneh and Shacham, "Fast
// Variants of RSA", 2002). For a 1024-bit modulus three is the most primes
// that keep it as hard to factor as a two-prime one (Hinek, "On the
// security of multi-prime RSA", 2008): 341-bit factors are far beyond what
// ECM finds. The public key, the signature bytes and their verification
// are those of any RSA-1024 key; only the signer's arithmetic changes, to
// three exponentiations modulo 342-bit primes instead of two modulo 512-bit
// ones. RSASigner signs such a key on a CRT kernel of its own (crt.go,
// mont.go) and every other key through rsa.SignPKCS1v15 — a two-prime
// 1024-bit key, which this package no longer generates, among them; the
// signature bytes are the same either way (PKCS#1 v1.5 is deterministic).
// crypto/rsa signs a key of more than two primes without CRT, and its
// Montgomery code has unrolled assembly only for 1024-, 1536- and
// 2048-bit moduli, so neither a 342-bit nor a 512-bit prime is served
// well there. The kernel works on six fixed 64-bit limbs instead. Its two
// Montgomery products, mul and sqr, have two implementations: on amd64
// CPUs with BMI2 and ADX both are one MULX/ADCX/ADOX assembly product
// (mulADX in mont_amd64.s, written by mont_amd64_gen.go) — two
// independent carry chains, which bits.Mul64/Add64 chains cannot be
// compiled to — and everywhere else the Go limb code (mont.go), which is
// also the reference the assembly is tested against. The window, the table
// lookup and the CRT recombination are Go on every path, and the
// verification is the package's own (below). With the assembly a
// signature takes about a fifth of crypto/rsa's time on a two-prime key,
// with the Go products about a third. The kernel computes the three thirds
// in turn: on the two-prime kernel this one replaced, the second half on a
// goroutine of its own, beside the caller's first, was measured and did
// not shorten recording by more than the benchmark's noise.
//
// What a change to the kernel must keep, as a review checklist:
//   - No branch, memory index, loop bound or early exit depends on a
//     secret (the primes, the CRT exponents, the Garner constants, any
//     intermediate value). A choice between two values — the final
//     subtraction of every Montgomery product, a modular addition or
//     subtraction — is a mask.
//   - Every 4-bit window of the exponentiation reads the whole 16-entry
//     table (lookup) and keeps the entry it wants by mask.
//   - The exponent is used at its full fixed width in each of the three
//     thirds: 43 bytes (344 bits), 86 windows, 4 squarings and 1
//     multiplication each, whatever its leading zeros.
//   - The recombination is two Garner steps made of Montgomery products
//     with the constants pᵢ⁻¹·R mod pⱼ and masked modular subtractions: a
//     residue modulo one prime is never reduced modulo another by a
//     comparison or a conditional subtraction, whichever prime is larger.
//   - The assembly uses MULX, ADCX, ADOX, ADD, ADC, SUB, SBB, IMUL, MOV,
//     CMOV and XOR (to clear the flags) only: no branch, and every address
//     is an operand's pointer or the frame plus a constant. Its final
//     subtraction keeps t or t − m by CMOV on the borrow. This holds for
//     the verify's row as well, and TestAssemblyChecklist checks it: it
//     reads this list.
//   - Which implementation runs (useADX) is decided once, at package init,
//     by a CPUID check: it depends on the CPU, never on a key or an
//     operand, and both implementations compute the same numbers.
//   - Variable time is allowed only in making a key (newKey) and setting
//     it up (newCRTKey, once per key in GenerateRSA): Rᵏ mod pᵢ for k = 1
//     to 4, −pᵢ⁻¹ mod 2⁶⁴, the Garner constants and the exponents
//     d mod (pᵢ−1) are computed there with math/big.
//   - The signature is verified under the public key before it is
//     returned, as crypto/rsa does; if it does not verify, Sign panics
//     instead (the output of a faulty CRT third reveals a prime).
//
// TestKernelTraceIndependentOfSecrets holds the first three points to a
// test: the sequence of products and lookups a signature makes, and the
// entries each lookup reads, is the same for every key, message and
// exponent. TestKernelBranches reads the compiler's amd64 listing of the
// Go kernel and fails on a conditional jump that is not a stack check, a
// bounds check, a fixed-count loop, a copy's same-address test or the
// kernelTrace and useADX guards. TestSignTiming reports Welch's t over
// sign timings and is not a gate.
//
// # RSA-1024 verification
//
// RSAVerifier verifies a signature under a 1024-bit key with e = 2ᵏ + 1 —
// e = 3 for every key GenerateRSA makes, e = 65537 for keys made before —
// itself (verify.go), and under any other key through rsa.VerifyPKCS1v15.
// It accepts exactly what crypto/rsa accepts: a signature of the modulus's
// length, below N, whose e-th power mod N is the PKCS#1 v1.5 encoding of
// the SHA-256 digest, byte for byte. (Under GODEBUG
// fips140=only, where crypto/rsa refuses keys below 2048 bits, it does not
// follow; that mode is not one this package supports.) crypto/rsa builds
// its Montgomery modulus, R² mod N included, on every call, about a quarter
// of a verification; here that context is built once per key, with
// math/big, when the verifier is made (GenerateRSA, ParseRSAVerifier), and
// the signer's verify before it returns shares it. The exponentiation is
// one loop for every such key, k read from the key: s·R², k squarings, ×s —
// three Montgomery products of sixteen limbs for e = 3, eighteen for
// e = 65537 — each 32 rows of one primitive, addMulRow16 (z += x·y, carry
// out): a MULX/ADCX/ADOX row in mont_amd64.s where the CPU has them,
// written out in Go elsewhere. Every input is public — the key, the
// message, the signature — so the verify may take variable time, and it
// does stop at a wrong length or s ≥ N. Past those checks it still runs
// the same instructions whatever the signature (rows without a branch, a
// masked final subtraction, a comparison that reads every limb), because
// the signer verifies its own result, which is below N by construction,
// and of a faulty one nothing but the panic may leave. Under an e = 3 key a
// verification takes about 1–2 µs with the assembly row, a fifth of
// crypto/rsa's time under the same key, and about 2–3 µs with the Go row;
// under an e = 65537 key, about half of crypto/rsa's time with the
// assembly row and about as long as crypto/rsa with the Go row.
package sig

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sort"
	"sync"
)

// PaperKeyBits is the RSA modulus size the paper's prototype used (§6.2).
// Modern crypto/rsa refuses to generate keys this small, so real keypairs
// use DefaultKeyBits instead; wire-size accounting for the paper's figures
// goes through PaperSigBytes (via SizedSigner), not through real keys.
const PaperKeyBits = 768

// PaperSigBytes is the on-the-wire size of a paper-scale RSA-768 signature.
// Experiments that reproduce the paper's log-growth and traffic figures
// size their (fake) signatures to this constant.
const PaperSigBytes = PaperKeyBits / 8

// DefaultKeyBits is the RSA modulus size used for real keypairs. The
// paper's 768-bit keys are below the minimum crypto/rsa accepts on modern
// Go, so cryptographic tests and deployments use 1024-bit keys; the
// paper's 768-bit wire sizes are preserved separately via PaperSigBytes.
const DefaultKeyBits = 1024

// NodeID names a principal: a machine or a user.
type NodeID string

// Signer produces signatures under a principal's private key.
type Signer interface {
	// ID returns the principal this signer signs for.
	ID() NodeID
	// Sign returns a signature over msg.
	Sign(msg []byte) []byte
	// SigLen returns the length in bytes of signatures produced by Sign.
	// It is used for network-overhead accounting.
	SigLen() int
	// Public returns the verifier for this signer's public key.
	Public() Verifier
}

// Verifier checks signatures produced by a principal.
type Verifier interface {
	// ID returns the principal whose signatures this verifier checks.
	ID() NodeID
	// Verify reports whether signature is a valid signature over msg.
	Verify(msg, signature []byte) bool
	// Marshal returns a serialized form of the public key.
	Marshal() []byte
}

// detReader is a deterministic stream of pseudo-random bytes derived from a
// seed with SHA-256 in counter mode. It makes a key of crtKeyBits (1024)
// reproducible, since newKey reads nothing else; rsa.GenerateKey, which
// makes every other size, reads an extra byte from it at random, so those
// keys are not.
type detReader struct {
	seed    [32]byte
	counter uint64
	buf     []byte
}

func newDetReader(seed string) *detReader {
	return &detReader{seed: sha256.Sum256([]byte(seed))}
}

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			var block [40]byte
			copy(block[:32], r.seed[:])
			binary.BigEndian.PutUint64(block[32:], r.counter)
			r.counter++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// RSASigner signs with an RSA private key using PKCS#1 v1.5 over SHA-256.
type RSASigner struct {
	id  NodeID
	key *rsa.PrivateKey
	pub *RSAVerifier
	crt *crtKey // nil unless the key is one the CRT kernel signs for
}

// GenerateRSA generates an RSA keypair for id from a seeded random stream.
// A key of crtKeyBits (DefaultKeyBits, 1024) is built here from three
// primes of crtPrimeSizes bits and is a function of (seed, id): the same
// seed and id give the same key on every run. A key of any other size comes
// from rsa.GenerateKey, which mixes extra randomness into key generation
// (it reads an extra byte from the stream at random), so the same seed
// does NOT reproduce it. The protocols in this repository never rely on
// regenerating a key — all verifiers are distributed explicitly through
// the KeyStore or via certificates.
func GenerateRSA(id NodeID, bits int, seed string) (*RSASigner, error) {
	if bits < 1024 {
		return nil, fmt.Errorf("sig: key size %d too small (crypto/rsa requires at least 1024 bits; use SizedSigner for paper-scale wire accounting)", bits)
	}
	r := newDetReader(seed + "/" + string(id))
	var key *rsa.PrivateKey
	var err error
	if bits == crtKeyBits {
		key, err = newKey(r, crtPrimeSizes, keyExponent)
	} else {
		key, err = rsa.GenerateKey(r, bits)
	}
	if err != nil {
		return nil, fmt.Errorf("sig: generating %d-bit key for %q: %w", bits, id, err)
	}
	return newRSASigner(id, key), nil
}

// keyExponent is the public exponent of every key GenerateRSA builds
// itself (the package comment says why 3).
const keyExponent = 3

// newKey builds an RSA key with public exponent e from distinct primes of
// the given bit lengths, each drawn by drawPrime, drawing all of them again
// until their product has exactly the sum of those lengths in bits. It
// reads nothing but r, so the same stream gives the same key.
func newKey(r io.Reader, sizes []int, e int) (*rsa.PrivateKey, error) {
	bits := 0
	for _, size := range sizes {
		bits += size
	}
	primes := make([]*big.Int, len(sizes))
	n := new(big.Int)
	for n.BitLen() != bits || !distinct(primes) {
		n.SetInt64(1)
		for i, size := range sizes {
			p, err := drawPrime(r, size, e)
			if err != nil {
				return nil, err
			}
			primes[i] = p
			n.Mul(n, p)
		}
	}
	one := big.NewInt(1)
	phi := big.NewInt(1)
	for _, p := range primes {
		phi.Mul(phi, new(big.Int).Sub(p, one))
	}
	key := &rsa.PrivateKey{
		PublicKey: rsa.PublicKey{N: n, E: e},
		D:         new(big.Int).ModInverse(big.NewInt(int64(e)), phi),
		Primes:    primes,
	}
	key.Precompute()
	if err := key.Validate(); err != nil {
		return nil, err
	}
	return key, nil
}

// drawPrime returns the first prime read from r, as bits-bit numbers with
// the two top bits set, lowered to the next number ≡ 5 (mod 6) at or below
// them, for which gcd(e, p−1) = 1. A candidate ≡ 5 (mod 6) is odd and has
// p−1 ≡ 1 (mod 3), so for e = 3 no prime is drawn only to fail the gcd.
func drawPrime(r io.Reader, bits, e int) (*big.Int, error) {
	b := make([]byte, (bits+7)/8)
	one := big.NewInt(1)
	six := big.NewInt(6)
	eBig := big.NewInt(int64(e))
	rem := new(big.Int)
	for {
		if _, err := io.ReadFull(r, b); err != nil {
			return nil, err
		}
		p := new(big.Int).SetBytes(b)
		for i := bits; i < 8*len(b); i++ {
			p.SetBit(p, i, 0)
		}
		p.SetBit(p, bits-1, 1)
		p.SetBit(p, bits-2, 1)
		p.Sub(p, rem.Mod(rem.Add(p, one), six))
		if p.Bit(bits-2) == 0 {
			continue // lowered past the second top bit
		}
		pm1 := new(big.Int).Sub(p, one)
		if p.ProbablyPrime(20) && new(big.Int).GCD(nil, nil, eBig, pm1).Cmp(one) == 0 {
			return p, nil
		}
	}
}

// distinct reports whether no two of primes are equal.
func distinct(primes []*big.Int) bool {
	for i, p := range primes {
		for _, q := range primes[:i] {
			if p.Cmp(q) == 0 {
				return false
			}
		}
	}
	return true
}

// newRSASigner sets up everything a signer computes once per key: its
// verifier, with the verify's Montgomery context where the key has one, and
// the CRT kernel where the key is one it signs for.
func newRSASigner(id NodeID, key *rsa.PrivateKey) *RSASigner {
	pub := newRSAVerifier(id, &key.PublicKey)
	return &RSASigner{id: id, key: key, pub: pub, crt: newCRTKey(key, pub.mont)}
}

// MustGenerateRSA is GenerateRSA but panics on error; key generation with
// valid parameters cannot fail.
func MustGenerateRSA(id NodeID, bits int, seed string) *RSASigner {
	s, err := GenerateRSA(id, bits, seed)
	if err != nil {
		panic(err)
	}
	return s
}

// MustGenerateRSAAll is MustGenerateRSA for every id at once, one goroutine
// per key: each key draws from its own seeded stream, so the keys are
// independent and generating three takes as long as generating the slowest.
// The result is in the order of ids.
func MustGenerateRSAAll(ids []NodeID, bits int, seed string) []*RSASigner {
	out := make([]*RSASigner, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id NodeID) {
			defer wg.Done()
			out[i], errs[i] = GenerateRSA(id, bits, seed)
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
	return out
}

// ID returns the principal this signer signs for.
func (s *RSASigner) ID() NodeID { return s.id }

// Sign returns an RSA PKCS#1 v1.5 signature over the SHA-256 digest of msg:
// the bytes rsa.SignPKCS1v15 returns, computed on the package's CRT kernel
// when the key is a three-prime 1024-bit one, as GenerateRSA makes them. It is safe to call from several
// goroutines at once.
func (s *RSASigner) Sign(msg []byte) []byte {
	digest := sha256.Sum256(msg)
	var signature []byte
	var err error
	if s.crt != nil {
		signature, err = s.crt.sign(&digest)
	} else {
		signature, err = rsa.SignPKCS1v15(nil, s.key, crypto.SHA256, digest[:])
	}
	if err != nil {
		// Signing with a valid key and digest fails only when the result
		// does not verify: a fault, whose output must not leave.
		panic(fmt.Sprintf("sig: RSA signing failed: %v", err))
	}
	return signature
}

// SigLen returns the modulus size in bytes.
func (s *RSASigner) SigLen() int { return s.key.Size() }

// Public returns the verifier for this signer's public key: the one the
// signer was set up with, shared by every caller.
func (s *RSASigner) Public() Verifier { return s.pub }

// RSAVerifier verifies RSA PKCS#1 v1.5 / SHA-256 signatures. It is safe to
// use from several goroutines at once.
type RSAVerifier struct {
	id   NodeID
	key  *rsa.PublicKey
	mont *montPublic // nil unless the package verifies for the key itself
}

// newRSAVerifier returns the verifier for key, with the Montgomery context
// of an RSA-1024 key with e = 2ᵏ + 1 — e = 3, as GenerateRSA makes them, or
// e = 65537, as keys made before have it — computed here, once.
func newRSAVerifier(id NodeID, key *rsa.PublicKey) *RSAVerifier {
	return &RSAVerifier{id: id, key: key, mont: newMontPublic(key)}
}

// ID returns the principal whose signatures this verifier checks.
func (v *RSAVerifier) ID() NodeID { return v.id }

// Verify reports whether signature is valid over msg: what
// rsa.VerifyPKCS1v15 reports, computed on the key's Montgomery context when
// it has one.
func (v *RSAVerifier) Verify(msg, signature []byte) bool {
	digest := sha256.Sum256(msg)
	if v.mont != nil {
		return v.mont.verify(&digest, signature)
	}
	return rsa.VerifyPKCS1v15(v.key, crypto.SHA256, digest[:], signature) == nil
}

// Marshal returns the PKCS#1 DER encoding of the public key.
func (v *RSAVerifier) Marshal() []byte {
	return x509.MarshalPKCS1PublicKey(v.key)
}

// ParseRSAVerifier reconstructs a verifier from Marshal output.
func ParseRSAVerifier(id NodeID, der []byte) (*RSAVerifier, error) {
	key, err := x509.ParsePKCS1PublicKey(der)
	if err != nil {
		return nil, fmt.Errorf("sig: parsing public key for %q: %w", id, err)
	}
	return newRSAVerifier(id, key), nil
}

// NullSigner implements the avmm-nosig configuration: it emits empty
// signatures that always verify. It provides no security and exists only to
// isolate the cost of cryptography in the evaluation (§6.2).
type NullSigner struct{ Node NodeID }

// ID returns the principal this signer signs for.
func (n NullSigner) ID() NodeID { return n.Node }

// Sign returns an empty signature.
func (n NullSigner) Sign([]byte) []byte { return nil }

// SigLen returns 0: null signatures occupy no space.
func (n NullSigner) SigLen() int { return 0 }

// Public returns a verifier that accepts any signature.
func (n NullSigner) Public() Verifier { return nullVerifier{node: n.Node} }

type nullVerifier struct{ node NodeID }

func (v nullVerifier) ID() NodeID            { return v.node }
func (nullVerifier) Verify(_, _ []byte) bool { return true }
func (nullVerifier) Marshal() []byte         { return nil }

// SizedSigner produces deterministic keyed-digest "signatures" of a fixed
// size. It exists for performance experiments: it occupies exactly as many
// bytes on the wire and in the log as a real signature of the configured
// size (RSA-768 = 96 bytes), while its generation cost is negligible — the
// crypto cost enters those experiments through the virtual-time cost model
// instead. It provides integrity but NO unforgeability and must never be
// used where the adversary model matters; security-sensitive tests use
// RSASigner.
type SizedSigner struct {
	Node NodeID
	Size int
}

// ID returns the principal this signer signs for.
func (s SizedSigner) ID() NodeID { return s.Node }

// Sign returns a Size-byte keyed digest of msg.
func (s SizedSigner) Sign(msg []byte) []byte {
	out := make([]byte, 0, s.Size)
	var counter [8]byte
	for len(out) < s.Size {
		h := sha256.New()
		h.Write([]byte("sized-sig/"))
		h.Write([]byte(s.Node))
		h.Write(counter[:])
		h.Write(msg)
		out = h.Sum(out)
		counter[7]++
	}
	return out[:s.Size]
}

// SigLen returns the configured signature size.
func (s SizedSigner) SigLen() int { return s.Size }

// Public returns the verifier, which recomputes the digest.
func (s SizedSigner) Public() Verifier { return sizedVerifier{s} }

type sizedVerifier struct{ s SizedSigner }

func (v sizedVerifier) ID() NodeID { return v.s.Node }
func (v sizedVerifier) Verify(msg, signature []byte) bool {
	want := v.s.Sign(msg)
	if len(signature) != len(want) {
		return false
	}
	for i := range want {
		if want[i] != signature[i] {
			return false
		}
	}
	return true
}
func (v sizedVerifier) Marshal() []byte { return []byte("sized:" + string(v.s.Node)) }

// KeyStore maps principals to their verifiers. An auditor needs the public
// keys of the audited machine and of every user who communicated with it
// (§4.5, "Verifying the execution").
type KeyStore struct {
	mu   sync.RWMutex
	keys map[NodeID]Verifier
}

// NewKeyStore returns an empty key store.
func NewKeyStore() *KeyStore {
	return &KeyStore{keys: make(map[NodeID]Verifier)}
}

// Add registers a verifier, replacing any previous entry for the same ID.
func (ks *KeyStore) Add(v Verifier) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ks.keys[v.ID()] = v
}

// Lookup returns the verifier for id.
func (ks *KeyStore) Lookup(id NodeID) (Verifier, bool) {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	v, ok := ks.keys[id]
	return v, ok
}

// Verify checks a signature attributed to id. Unknown principals never
// verify: a faulty machine must not be able to introduce fake identities
// (§4.1, assumption 3).
func (ks *KeyStore) Verify(id NodeID, msg, signature []byte) bool {
	v, ok := ks.Lookup(id)
	return ok && v.Verify(msg, signature)
}

// IDs returns all registered principals in sorted order.
func (ks *KeyStore) IDs() []NodeID {
	ks.mu.RLock()
	defer ks.mu.RUnlock()
	ids := make([]NodeID, 0, len(ks.keys))
	for id := range ks.keys {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// Certificate binds a principal to a public key under an authority's
// signature, satisfying assumption 3 of §4.1 ("a keypair that is signed by
// the administrator").
type Certificate struct {
	Subject NodeID
	Key     []byte // marshaled public key
	Issuer  NodeID
	Sig     []byte
}

// certBody returns the byte string a certificate signature covers.
func certBody(subject NodeID, key []byte) []byte {
	body := make([]byte, 0, 8+len(subject)+len(key))
	body = append(body, "avmcert:"...)
	body = appendLenPrefixed(body, []byte(subject))
	body = appendLenPrefixed(body, key)
	return body
}

func appendLenPrefixed(dst, b []byte) []byte {
	var lenBuf [4]byte
	binary.BigEndian.PutUint32(lenBuf[:], uint32(len(b)))
	dst = append(dst, lenBuf[:]...)
	return append(dst, b...)
}

// Issue creates a certificate for subject's public key signed by the
// authority ca.
func Issue(ca Signer, subject Verifier) Certificate {
	key := subject.Marshal()
	return Certificate{
		Subject: subject.ID(),
		Key:     key,
		Issuer:  ca.ID(),
		Sig:     ca.Sign(certBody(subject.ID(), key)),
	}
}

// ErrBadCertificate reports a certificate whose signature does not verify
// under the given authority.
var ErrBadCertificate = errors.New("sig: certificate signature invalid")

// VerifyCertificate checks cert under the authority's verifier and, on
// success, returns the subject's verifier.
func VerifyCertificate(ca Verifier, cert Certificate) (*RSAVerifier, error) {
	if cert.Issuer != ca.ID() {
		return nil, fmt.Errorf("sig: certificate issuer %q is not authority %q", cert.Issuer, ca.ID())
	}
	if !ca.Verify(certBody(cert.Subject, cert.Key), cert.Sig) {
		return nil, ErrBadCertificate
	}
	return ParseRSAVerifier(cert.Subject, cert.Key)
}
