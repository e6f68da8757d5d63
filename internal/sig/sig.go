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
// Key generation draws from a seeded stream for reproducibility of the
// surrounding experiments; the protocols never rely on regenerating a key —
// verifiers travel through the KeyStore and certificates.
//
// # The RSA-1024 signing kernel
//
// RSASigner signs with a key of DefaultKeyBits — two 512-bit primes — on a
// CRT kernel of its own (crt.go, mont.go) and with every other key through
// rsa.SignPKCS1v15; the signature bytes are the same either way (PKCS#1
// v1.5 is deterministic). The fork is by modulus size, as crypto/rsa's own
// Montgomery code forks: it has unrolled assembly for 1024-, 1536- and
// 2048-bit moduli, so a 2048-bit key's 1024-bit primes are served well,
// but RSA-1024's two half-exponentiations run on 512-bit primes and fall
// through to its generic word loop. The kernel works on eight fixed 64-bit
// limbs instead. Its two Montgomery products, mul and sqr, have two
// implementations: on amd64 CPUs with BMI2 and ADX both are one
// MULX/ADCX/ADOX assembly product (mulADX in mont_amd64.s, written by
// mont_amd64_gen.go) — two independent carry chains, which
// bits.Mul64/Add64 chains cannot be compiled to — and everywhere else the
// Go limb code (mont.go), which is also the reference the assembly is
// tested against. The window, the table lookup and the CRT recombination
// are Go on every path, and the verification is the package's own (below).
// With the assembly a signature takes about a third of crypto/rsa's time,
// with the Go products half to two thirds. The kernel computes the two
// halves in turn: the mod-q half on a goroutine of its own, beside the
// caller's mod-p half, was measured and did not shorten recording by more
// than the benchmark's noise.
//
// What a change to the kernel must keep, as a review checklist:
//   - No branch, memory index, loop bound or early exit depends on a
//     secret (the primes, the CRT exponents, q⁻¹, any intermediate value).
//     A choice between two values — the final subtraction of every
//     Montgomery product, a modular addition or subtraction — is a mask.
//   - Every 4-bit window of the exponentiation reads the whole 16-entry
//     table (lookup) and keeps the entry it wants by mask.
//   - The exponent is used at its full fixed width: 64 bytes, 128 windows,
//     4 squarings and 1 multiplication each, whatever its leading zeros.
//   - The assembly uses MULX, ADCX, ADOX, ADD, ADC, SUB, SBB, IMUL, MOV,
//     CMOV and XOR (to clear the flags) only: no branch, and every address
//     is an operand's pointer or the frame plus a constant. Its final
//     subtraction keeps t or t − m by CMOV on the borrow. This holds for
//     the verify's row as well, and TestAssemblyChecklist checks it: it
//     reads this list.
//   - Which implementation runs (useADX) is decided once, at package init,
//     by a CPUID check: it depends on the CPU, never on a key or an
//     operand, and both implementations compute the same numbers.
//   - Variable time is allowed only in setting up a key (newCRTKey, once
//     per key in GenerateRSA): R² mod p, −p⁻¹ mod 2⁶⁴, q⁻¹·R mod p and
//     the exponents are computed there with math/big.
//   - The signature is verified under the public key before it is
//     returned, as crypto/rsa does; if it does not verify, Sign panics
//     instead (the output of a faulty CRT half reveals a prime).
//
// # RSA-1024 verification
//
// RSAVerifier verifies a signature under a 1024-bit key with e = 65537 —
// every key GenerateRSA makes — itself (verify.go), and under any other key
// through rsa.VerifyPKCS1v15. It accepts exactly what crypto/rsa accepts: a
// signature of the modulus's length, below N, whose 65537th power mod N is
// the PKCS#1 v1.5 encoding of the SHA-256 digest. (Under GODEBUG
// fips140=only, where crypto/rsa refuses keys below 2048 bits, it does not
// follow; that mode is not one this package supports.) crypto/rsa builds
// its Montgomery modulus, R² mod N included, on every call, about a quarter
// of a verification; here that context is built once per key, with
// math/big, when the verifier is made (GenerateRSA, ParseRSAVerifier), and
// the signer's verify before it returns shares it. The exponentiation is
// eighteen Montgomery products of sixteen limbs, each 32 rows of one
// primitive, addMulRow16 (z += x·y, carry out): a MULX/ADCX/ADOX row in
// mont_amd64.s where the CPU has them, written out in Go elsewhere. Every
// input is public — the key, the message, the signature — so the verify may
// take variable time, and it does stop at a wrong length or s ≥ N. Past
// those checks it still runs the same instructions whatever the signature
// (rows without a branch, a masked final subtraction, a comparison that
// reads every limb), because the signer verifies its own result, which is
// below N by construction, and of a faulty one nothing but the panic may
// leave. With the assembly row a verification takes about
// half of crypto/rsa's time; with the Go row about as long as crypto/rsa.
package sig

import (
	"crypto"
	"crypto/rsa"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
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
// seed with SHA-256 in counter mode. It lets key generation be reproducible.
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
// Note that crypto/rsa deliberately injects extra randomness during key
// generation, so the same seed is NOT guaranteed to reproduce the same key;
// the protocols in this repository never rely on regenerating a key — all
// verifiers are distributed explicitly through the KeyStore or via
// certificates.
func GenerateRSA(id NodeID, bits int, seed string) (*RSASigner, error) {
	if bits < 1024 {
		return nil, fmt.Errorf("sig: key size %d too small (crypto/rsa requires at least 1024 bits; use SizedSigner for paper-scale wire accounting)", bits)
	}
	key, err := rsa.GenerateKey(newDetReader(seed+"/"+string(id)), bits)
	if err != nil {
		return nil, fmt.Errorf("sig: generating %d-bit key for %q: %w", bits, id, err)
	}
	return newRSASigner(id, key), nil
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
// when the key is a two-prime 1024-bit one. It is safe to call from several
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
// of an RSA-1024, e = 65537 key computed here, once.
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
