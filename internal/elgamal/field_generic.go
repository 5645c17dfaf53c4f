//go:build !amd64

package elgamal

// Without the amd64 kernel (field_amd64.s) the field runs on the
// pure-Go bodies in field.go.

func feMul(z, x, y *fe)      { feMulGeneric(z, x, y) }
func feSqr(z, x *fe)         { feSqrGeneric(z, x) }
func feSqrN(z, x *fe, n int) { feSqrNGeneric(z, x, n) }
