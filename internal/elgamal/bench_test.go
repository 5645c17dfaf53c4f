package elgamal

// BenchmarkGroupOps measures the group core per element across three
// arms wherever they exist:
//
//   - affine-ref: textbook affine math/big arithmetic (one inversion
//     per point addition, double-and-add multiplication) — the
//     "per-element affine path" the Jacobian rewrite replaces;
//   - stdlib:     the deprecated crypto/elliptic entry points the old
//     code actually called (assembly-backed on amd64);
//   - batch:      the new Jacobian/table/batch pipeline.
//
// Mul/single is an uncached variable-base Point.Mul, the wNAF chain
// with its own two inversions; Mul/chunk is the same chain in
// BatchExpBlind's chunks (distinct bases and scalars, inversions
// shared), counted per multiplication.
//
// All arms report ns and allocations per element so the sub-benchmarks
// compare directly. Parse/compressed and Parse/stdlib decode one
// compressed point, ParsePoint against elliptic.UnmarshalCompressed. See PERF.md for recorded numbers.

import (
	"crypto/elliptic"
	"math/big"
	"testing"
)

const benchBatch = 512

// perBatch runs fn over batches whose sizes total b.N, so ns/op is per
// element even for batched implementations.
func perBatch(b *testing.B, fn func(n int)) {
	b.ResetTimer()
	for remaining := b.N; remaining > 0; remaining -= benchBatch {
		n := benchBatch
		if remaining < n {
			n = remaining
		}
		fn(n)
	}
}

func benchScalars(n int) []*big.Int { return RandomScalars(n) }

// runAllocs is b.Run with allocations reported; a sub-benchmark does
// not inherit its parent's ReportAllocs.
func runAllocs(b *testing.B, name string, f func(*testing.B)) {
	b.Run(name, func(b *testing.B) {
		b.ReportAllocs()
		f(b)
	})
}

func BenchmarkGroupOps(b *testing.B) {
	ks := benchScalars(benchBatch)
	base := stdlibBaseMul(RandomScalar())
	points := BatchBaseMul(benchScalars(benchBatch))
	points2 := BatchBaseMul(benchScalars(benchBatch))

	runAllocs(b, "BaseMul/affine-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refAffineBaseMul(ks[i%benchBatch])
		}
	})
	runAllocs(b, "BaseMul/stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stdlibBaseMul(ks[i%benchBatch])
		}
	})
	runAllocs(b, "BaseMul/table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BaseMul(ks[i%benchBatch])
		}
	})
	runAllocs(b, "BaseMul/batch", func(b *testing.B) {
		perBatch(b, func(n int) { BatchBaseMul(ks[:n]) })
	})

	runAllocs(b, "Mul/stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stdlibMul(base, ks[i%benchBatch])
		}
	})
	runAllocs(b, "Mul/single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			base.Mul(ks[i%benchBatch])
		}
	})
	// Mul/chunk blinds ciphertexts whose halves are all distinct bases,
	// two multiplications each, and reports per multiplication.
	blindIn := make([]Ciphertext, benchBatch/2)
	for i := range blindIn {
		blindIn[i] = Ciphertext{C1: points[2*i], C2: points[2*i+1]}
	}
	runAllocs(b, "Mul/chunk", func(b *testing.B) {
		perBatch(b, func(n int) { BatchExpBlind(blindIn[:(n+1)/2]) })
	})
	runAllocs(b, "Mul/batch", func(b *testing.B) {
		perBatch(b, func(n int) { BatchMul(base, ks[:n]) })
	})

	runAllocs(b, "Add/affine-ref", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			refAffineAdd(points[i%benchBatch], points2[i%benchBatch])
		}
	})
	runAllocs(b, "Add/stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			stdlibAdd(points[i%benchBatch], points2[i%benchBatch])
		}
	})
	runAllocs(b, "Add/single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			points[i%benchBatch].Add(points2[i%benchBatch])
		}
	})

	// Decoding one compressed point off the wire: ParsePoint's square
	// root on the field kernel against crypto/elliptic's decoder.
	encoded := make([][]byte, benchBatch)
	for i, p := range points {
		encoded[i] = p.Bytes()
	}
	runAllocs(b, "Parse/compressed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := ParsePoint(encoded[i%benchBatch]); err != nil {
				b.Fatal(err)
			}
		}
	})
	runAllocs(b, "Parse/stdlib", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if x, _ := elliptic.UnmarshalCompressed(curve, encoded[i%benchBatch]); x == nil {
				b.Fatal("crypto/elliptic refused a point")
			}
		}
	})
}

// BenchmarkCiphertextOps measures the protocol-level vector operations
// per element: encryption, re-randomization, blinding, decryption
// shares, the proof verifications that dominate a verified PSC round,
// and decoding a ciphertext off the wire.
func BenchmarkCiphertextOps(b *testing.B) {
	key := GenerateKey()
	Precompute(key.PK)
	bits := make([]bool, benchBatch)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	cts, rs := BatchEncryptBits(key.PK, bits)

	var packed []byte
	for _, c := range cts {
		packed = c.AppendTo(packed)
	}
	runAllocs(b, "Parse/ciphertext", func(b *testing.B) {
		rest := packed
		for i := 0; i < b.N; i++ {
			if len(rest) == 0 {
				rest = packed
			}
			_, n, err := ParseCiphertext(rest)
			if err != nil {
				b.Fatal(err)
			}
			rest = rest[n:]
		}
	})

	runAllocs(b, "EncryptBit/old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			EncryptBit(key.PK, i%2 == 0)
		}
	})
	runAllocs(b, "EncryptBit/batch", func(b *testing.B) {
		perBatch(b, func(n int) { BatchEncryptBits(key.PK, bits[:n]) })
	})

	runAllocs(b, "Rerandomize/old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cts[i%benchBatch].RerandomizeWith(key.PK, RandomScalar())
		}
	})
	runAllocs(b, "Rerandomize/batch", func(b *testing.B) {
		perBatch(b, func(n int) { BatchRerandomize(key.PK, cts[:n]) })
	})

	runAllocs(b, "PartialDecrypt/old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			key.PartialDecrypt(cts[i%benchBatch])
		}
	})
	runAllocs(b, "PartialDecrypt/batch", func(b *testing.B) {
		perBatch(b, func(n int) { key.BatchPartialDecrypt(cts[:n]) })
	})

	shares := key.BatchPartialDecrypt(cts)
	// One proof covers a chunk, so these two arms work on whole
	// benchBatch-element chunks: ns/op is per element when b.N is a
	// multiple of it.
	runAllocs(b, "ProveShares/chunk", func(b *testing.B) {
		b.ResetTimer()
		for done := 0; done < b.N; done += benchBatch {
			key.BatchProveShares(cts, shares)
		}
	})
	shareProof := key.BatchProveShares(cts, shares)
	runAllocs(b, "VerifyShares/chunk", func(b *testing.B) {
		b.ResetTimer()
		for done := 0; done < b.N; done += benchBatch {
			if _, ok := VerifySharesBatch(key.PK, cts, shares, shareProof); !ok {
				b.Fatal("share chunk rejected")
			}
		}
	})

	blinded, ss := BatchExpBlind(cts)
	blindProofs := BatchProveBlinds(cts, blinded, ss)
	runAllocs(b, "VerifyBlind/old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % benchBatch
			if !VerifyBlind(cts[j], blinded[j], blindProofs[j]) {
				b.Fatal("blind proof rejected")
			}
		}
	})
	runAllocs(b, "VerifyBlind/batch", func(b *testing.B) {
		perBatch(b, func(n int) {
			if _, ok := VerifyBlindsBatch(cts[:n], blinded[:n], blindProofs[:n]); !ok {
				b.Fatal("blind batch rejected")
			}
		})
	})

	bitProofs := BatchProveBits(key.PK, cts, bits, rs)
	runAllocs(b, "VerifyBit/old", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			j := i % benchBatch
			if !VerifyBit(key.PK, cts[j], bitProofs[j]) {
				b.Fatal("bit proof rejected")
			}
		}
	})
	runAllocs(b, "VerifyBit/batch", func(b *testing.B) {
		perBatch(b, func(n int) {
			if _, ok := VerifyBitsBatch(key.PK, cts[:n], bitProofs[:n]); !ok {
				b.Fatal("bit batch rejected")
			}
		})
	})
}

// BenchmarkRandomScalar isolates the buffered-entropy win over a
// syscall per scalar.
func BenchmarkRandomScalar(b *testing.B) {
	b.Run("single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			RandomScalar()
		}
	})
	b.Run("bulk", func(b *testing.B) {
		perBatch(b, func(n int) { RandomScalars(n) })
	})
}

// BenchmarkRerandomizeBlock re-randomizes one 1024-element shuffle
// block against a cached joint-key table — the call the cut-and-choose
// argument makes 17 times per block and CP pass — and reports µs per
// element. Run it with -cpu 1 for the per-core cost.
func BenchmarkRerandomizeBlock(b *testing.B) {
	const block = 1024
	key := GenerateKey()
	Precompute(key.PK)
	bits := make([]bool, block)
	for i := range bits {
		bits[i] = i%2 == 0
	}
	cts, _ := BatchEncryptBits(key.PK, bits)
	rs := RandomScalars(block)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BatchRerandomizeWith(key.PK, cts, rs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*block), "µs/elem")
}

// BenchmarkShuffleBlock proves and verifies one 1024-element block's
// cut-and-choose argument at 8 rounds, the deployment default, against
// a cached joint-key table, and reports B/op and allocs/op: a shadow or
// MSM scratch that is allocated per round again shows in B/op long
// before it shows in time.
func BenchmarkShuffleBlock(b *testing.B) {
	const block, rounds = 1024, 8
	key := GenerateKey()
	Precompute(key.PK)
	in := encryptBlock(key.PK, block)
	out, w := Shuffle(key.PK, in)
	transcript := func() *ShuffleTranscript { return NewShuffleTranscript(key.PK, block, block, 1, rounds) }
	proof, err := ProveShuffleBlock(transcript(), 1, 0, key.PK, in, out, w, rounds)
	if err != nil {
		b.Fatal(err)
	}
	runAllocs(b, "prove", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ProveShuffleBlock(transcript(), 1, 0, key.PK, in, out, w, rounds); err != nil {
				b.Fatal(err)
			}
		}
	})
	runAllocs(b, "verify", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := VerifyShuffleBlock(transcript(), 1, 0, key.PK, in, out, proof); err != nil {
				b.Fatal(err)
			}
		}
	})
}
