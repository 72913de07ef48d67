// Package secure implements the security machinery of Section 3.4: key
// derivation from user-supplied passwords (the password itself never crosses
// the wire), an encryption-based mutual authentication handshake between
// mutually suspicious parties sharing a key, per-session key generation, and
// sealed (encrypted and integrity-protected) records for all subsequent
// communication on a connection.
//
// The paper assumed cheap DES hardware; here records are sealed with
// AES-256-CTR and authenticated with HMAC-SHA256 (encrypt-then-MAC). The
// semantics — mutual suspicion, per-session keys limiting exposure of the
// long-term authentication key, an untrusted network — are exactly the
// paper's.
package secure

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"sync"
	"sync/atomic"
)

// KeySize is the byte length of all keys in this package.
const KeySize = 32

// Key is long-term or session key material.
type Key [KeySize]byte

// deriveIters is the password-stretching iteration count. Modest by modern
// standards but this is a closed simulation, not a password vault.
const deriveIters = 4096

// derivedKeys memoizes DeriveKey. The derivation is a pure function of
// (user, password) and deliberately expensive; a simulation logging in tens
// of thousands of workstation users with a handful of distinct credentials
// would otherwise spend a measurable fraction of its CPU re-stretching the
// same passwords.
var derivedKeys sync.Map // string(user\x00password) -> Key

// DeriveKey stretches a user password into an authentication key. The user
// name salts the derivation so equal passwords yield distinct keys.
func DeriveKey(user, password string) Key {
	memoKey := user + "\x00" + password
	if k, ok := derivedKeys.Load(memoKey); ok {
		return k.(Key)
	}
	h := sha256.Sum256([]byte("itcfs-v1|" + user + "|" + password))
	mix := sha256.New()
	for i := 0; i < deriveIters; i++ {
		mix.Reset()
		mix.Write(h[:])
		var ctr [4]byte
		binary.LittleEndian.PutUint32(ctr[:], uint32(i))
		mix.Write(ctr[:])
		mix.Sum(h[:0])
	}
	derivedKeys.Store(memoKey, Key(h))
	return Key(h)
}

// NewSessionKey returns a fresh random key.
func NewSessionKey() (Key, error) {
	var k Key
	if _, err := rand.Read(k[:]); err != nil {
		return Key{}, fmt.Errorf("secure: session key: %w", err)
	}
	return k, nil
}

// subkey derives a purpose-specific key from k.
func subkey(k Key, purpose string) []byte {
	m := hmac.New(sha256.New, k[:])
	m.Write([]byte(purpose))
	return m.Sum(nil)
}

// Sealed-record layout: nonce (16) || ciphertext (len(plain)) || tag (32).
const (
	nonceSize = aes.BlockSize
	tagSize   = sha256.Size
	// Overhead is the fixed byte cost Seal adds to a plaintext.
	Overhead = nonceSize + tagSize
)

// ErrBadSeal is returned when a sealed record fails authentication or is
// malformed. Callers must treat it as evidence of tampering or a wrong key.
var ErrBadSeal = errors.New("secure: record failed authentication")

// Box seals and opens records under one key. A Box is safe for concurrent
// use.
//
// Nonces are structured rather than random, saving a system-entropy read per
// record: 8 random bytes fixed at Box creation (so two Boxes sealing under
// the same key cannot collide), a 32-bit record counter, and 4 zero bytes
// left for CTR's own block counter — records up to 2^32 AES blocks (64 GiB)
// cannot run into the next record's keystream. HMAC states are pooled and
// reset rather than re-keyed per record — at tens of thousands of simulated
// clients, per-message hmac.New was the single largest allocation site in
// the whole system.
type Box struct {
	block       cipher.Block
	macKey      []byte
	noncePrefix [8]byte
	nonceCtr    atomic.Uint64
	macs        sync.Pool // *macState
}

// macState is one pooled HMAC-SHA256 state keyed by the Box's macKey, with
// scratch for the tag it computes. hash.Hash.Sum is an interface call, so a
// tag buffer on the caller's stack would escape to the heap on every Open.
type macState struct {
	h   hash.Hash
	tag [tagSize]byte
}

// NewBox returns a Box keyed by k.
func NewBox(k Key) *Box {
	block, err := aes.NewCipher(subkey(k, "encrypt"))
	if err != nil {
		panic(err) // key length is fixed; cannot happen
	}
	b := &Box{block: block, macKey: subkey(k, "mac")}
	if _, err := rand.Read(b.noncePrefix[:]); err != nil {
		panic(fmt.Sprintf("secure: nonce prefix: %v", err))
	}
	b.macs.New = func() any {
		return &macState{h: hmac.New(sha256.New, b.macKey)}
	}
	return b
}

// ctrXOR encrypts (or decrypts — CTR is symmetric) src into dst under
// nonce. The stream state is one short-lived allocation per record; a
// hand-rolled stack-counter loop was tried and lost badly, because it forces
// one cipher.Block.Encrypt interface call per 16-byte block where the
// stdlib stream runs eight blocks per assembly dispatch.
func (b *Box) ctrXOR(nonce, dst, src []byte) {
	cipher.NewCTR(b.block, nonce).XORKeyStream(dst, src)
}

// mac computes HMAC(macKey, body) into the tag of a pooled state, which
// the caller returns to b.macs once it has read the tag.
func (b *Box) mac(body []byte) *macState {
	ms := b.macs.Get().(*macState)
	ms.h.Reset()
	ms.h.Write(body)
	ms.h.Sum(ms.tag[:0])
	return ms
}

// Seal encrypts and authenticates plain, returning nonce||ct||tag.
func (b *Box) Seal(plain []byte) []byte {
	out := make([]byte, nonceSize+len(plain), nonceSize+len(plain)+tagSize)
	nonce := out[:nonceSize]
	copy(nonce, b.noncePrefix[:])
	ctr := b.nonceCtr.Add(1)
	if ctr>>32 != 0 {
		panic("secure: nonce counter exhausted")
	}
	binary.BigEndian.PutUint32(nonce[8:12], uint32(ctr))
	ct := out[nonceSize:]
	b.ctrXOR(nonce, ct, plain)
	ms := b.mac(out)
	out = append(out, ms.tag[:]...)
	b.macs.Put(ms)
	return out
}

// Open authenticates and decrypts a record produced by Seal.
func (b *Box) Open(sealed []byte) ([]byte, error) {
	if len(sealed) < Overhead {
		return nil, ErrBadSeal
	}
	body := sealed[:len(sealed)-tagSize]
	tag := sealed[len(sealed)-tagSize:]
	ms := b.mac(body)
	ok := subtle.ConstantTimeCompare(ms.tag[:], tag) == 1
	b.macs.Put(ms)
	if !ok {
		return nil, ErrBadSeal
	}
	nonce := body[:nonceSize]
	ct := body[nonceSize:]
	plain := make([]byte, len(ct))
	b.ctrXOR(nonce, plain, ct)
	return plain, nil
}
