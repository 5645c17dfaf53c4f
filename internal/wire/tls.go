package wire

import (
	"crypto/ed25519"
	"crypto/rand"
	"crypto/sha256"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"encoding/hex"
	"errors"
	"fmt"
	"math/big"
	"net"
	"time"
)

// Identity is a party's long-term TLS identity: an Ed25519 key with a
// self-signed certificate. Peers authenticate by pinning the SPKI hash,
// not by a CA — the deployment model of a coordinated research study
// where operators exchange fingerprints out of band.
type Identity struct {
	Name string
	Cert tls.Certificate
	spki [32]byte
}

// GenerateIdentity creates a fresh identity with a certificate valid
// for the given duration.
func GenerateIdentity(name string, validFor time.Duration) (*Identity, error) {
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("wire: keygen: %w", err)
	}
	serial, err := rand.Int(rand.Reader, new(big.Int).Lsh(big.NewInt(1), 120))
	if err != nil {
		return nil, err
	}
	tmpl := x509.Certificate{
		SerialNumber:          serial,
		Subject:               pkix.Name{CommonName: name},
		NotBefore:             time.Now().Add(-time.Hour),
		NotAfter:              time.Now().Add(validFor),
		KeyUsage:              x509.KeyUsageDigitalSignature,
		ExtKeyUsage:           []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth, x509.ExtKeyUsageClientAuth},
		BasicConstraintsValid: true,
		DNSNames:              []string{name},
	}
	der, err := x509.CreateCertificate(rand.Reader, &tmpl, &tmpl, pub, priv)
	if err != nil {
		return nil, fmt.Errorf("wire: create cert: %w", err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	id := &Identity{
		Name: name,
		Cert: tls.Certificate{Certificate: [][]byte{der}, PrivateKey: priv, Leaf: leaf},
	}
	id.spki = sha256.Sum256(leaf.RawSubjectPublicKeyInfo)
	return id, nil
}

// SPKI returns the SHA-256 hash of the identity's SubjectPublicKeyInfo,
// the value peers pin.
func (id *Identity) SPKI() [32]byte { return id.spki }

// Fingerprint renders the SPKI pin as hex for configuration files.
func (id *Identity) Fingerprint() string { return hex.EncodeToString(id.spki[:]) }

// ServerTLS returns the TLS configuration for accepting connections as
// this identity.
func (id *Identity) ServerTLS() *tls.Config {
	return &tls.Config{
		Certificates: []tls.Certificate{id.Cert},
		MinVersion:   tls.VersionTLS13,
	}
}

// ErrPinMismatch is returned when a peer presents a certificate whose
// public key does not match the pinned fingerprint.
var ErrPinMismatch = errors.New("wire: peer public key does not match pin")

// ClientTLS returns a TLS configuration that accepts exactly the peer
// holding the pinned SPKI, regardless of certificate chains.
func ClientTLS(pin [32]byte) *tls.Config {
	return &tls.Config{
		// Chain and hostname verification are replaced by the pin check;
		// a self-signed cert cannot pass standard verification.
		InsecureSkipVerify: true,
		MinVersion:         tls.VersionTLS13,
		VerifyPeerCertificate: func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
			if len(rawCerts) == 0 {
				return ErrPinMismatch
			}
			cert, err := x509.ParseCertificate(rawCerts[0])
			if err != nil {
				return err
			}
			got := sha256.Sum256(cert.RawSubjectPublicKeyInfo)
			if got != pin {
				return ErrPinMismatch
			}
			return nil
		},
	}
}

// ClientTLSPin builds a pinned client TLS config from a hex SPKI
// fingerprint (the format Fingerprint prints and operators exchange).
// An empty string selects plain TCP (nil config).
func ClientTLSPin(fingerprint string) (*tls.Config, error) {
	if fingerprint == "" {
		return nil, nil
	}
	raw, err := hex.DecodeString(fingerprint)
	if err != nil || len(raw) != 32 {
		return nil, fmt.Errorf("wire: bad SPKI fingerprint %q", fingerprint)
	}
	var pin [32]byte
	copy(pin[:], raw)
	return ClientTLS(pin), nil
}

// Listen opens a TCP listener, TLS-wrapped when tlsCfg is non-nil.
// Use addr "127.0.0.1:0" in tests to get an ephemeral port.
func Listen(addr string, tlsCfg *tls.Config, opts ...Option) (Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return Listener{}, err
	}
	if tlsCfg != nil {
		return Listener{l: tls.NewListener(l, tlsCfg), opts: opts}, nil
	}
	return Listener{l: l, opts: opts}, nil
}

// Dial connects to addr, TLS-wrapped when tlsCfg is non-nil, with the
// given timeout.
func Dial(addr string, tlsCfg *tls.Config, timeout time.Duration, opts ...Option) (*Conn, error) {
	d := &net.Dialer{Timeout: timeout}
	if tlsCfg != nil {
		c, err := tls.DialWithDialer(d, "tcp", addr, tlsCfg)
		if err != nil {
			return nil, err
		}
		return NewConn(c, opts...), nil
	}
	c, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewConn(c, opts...), nil
}
