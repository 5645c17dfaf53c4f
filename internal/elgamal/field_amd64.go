package elgamal

// On amd64 (this file's name selects it) the field multiplies and
// squares in assembly; field_generic.go covers every other
// architecture.

// feMul computes z = x·y·R⁻¹ mod p in assembly (field_amd64.s); it is
// bit-identical to feMulGeneric.
//
//go:noescape
func feMul(z, x, y *fe)

// feSqrN computes z = x^(2^n) in Montgomery form by n squarings in
// assembly (field_amd64.s), and z = x for n ≤ 0; it is bit-identical to
// feSqrNGeneric.
//
//go:noescape
func feSqrN(z, x *fe, n int)

// feSqr computes z = x²·R⁻¹ mod p.
func feSqr(z, x *fe) { feSqrN(z, x, 1) }
