//! Quickstart: compose a scheme, score and align two sequences.
//!
//! Run: `cargo run --release --example quickstart`

use anyseq::prelude::*;

fn main() {
    // Parse sequences (FASTA files work too: anyseq::seq::fasta).
    let q = Seq::from_ascii(b"ACGTACGTTGACCAGTTGACAGT").unwrap();
    let s = Seq::from_ascii(b"ACGTACGTTGCCAGTTGACAAGT").unwrap();

    // The paper's interface style (§III-C): behaviour is composed from
    // functions — alignment kind ∘ gap model ∘ substitution scoring.
    // Each composition monomorphizes into a dedicated engine.
    let scheme = global(affine(simple(2, -1), -2, -1));

    // Score only (linear space):
    let score = scheme.score(&q, &s);
    println!("global affine score: {score}");

    // Full alignment (linear-space traceback):
    let aln = scheme.align(&q, &s);
    println!("cigar: {}", aln.cigar());
    println!("identity: {:.1}%", 100.0 * aln.identity());
    let (qa, mid, sa) = aln.render(&q, &s);
    println!("{}", String::from_utf8_lossy(&qa));
    println!("{}", String::from_utf8_lossy(&mid));
    println!("{}", String::from_utf8_lossy(&sa));

    // Other kinds by swapping the outer combinator:
    let local_score = local(linear(simple(2, -1), -2)).score(&q, &s);
    let semi_score = semiglobal(linear(simple(2, -1), -2)).score(&q, &s);
    println!("local: {local_score}, semi-global: {semi_score}");

    // Every alignment self-validates: the ops must recompute to the
    // reported score.
    aln.validate::<Global, _, _>(&q, &s, scheme.gap(), scheme.subst())
        .expect("alignment is internally consistent");
}
