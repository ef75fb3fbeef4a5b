package repro.matching

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class SimilaritySpec extends AnyFunSuite {

  test("tokens lower-cases and drops empties") {
    assert(Similarity.tokens("Foo  BAR baz") == Set("foo", "bar", "baz"))
    assert(Similarity.tokens(null) == Set.empty)
    assert(Similarity.tokens("   ") == Set.empty)
  }

  test("tokenJaccard identical strings → 1") {
    assert(ReferenceSimilarity.tokenJaccard("a b c", "c b a") == 1.0)
  }

  test("tokenJaccard disjoint strings → 0") {
    assert(ReferenceSimilarity.tokenJaccard("a b", "c d") == 0.0)
  }

  test("tokenJaccard known value") {
    assert(ReferenceSimilarity.tokenJaccard("a b c", "b c d") == 2.0 / 4)
  }

  test("tokenJaccard is null-safe and case-insensitive") {
    assert(ReferenceSimilarity.tokenJaccard(null, "a") == 0.0)
    assert(ReferenceSimilarity.tokenJaccard("A b", "a B") == 1.0)
  }

  test("tokenJaccardKnown blends full and vocabulary-restricted overlap") {
    val vocab = Set("a", "b")
    // shared tokens a,b known; union {a,b,x,y} → (2 + 2) / (2·4)
    assert(ReferenceSimilarity.tokenJaccardKnown("a b x", "a b y", vocab) == 0.5)
    // nothing shared → 0 regardless of vocabulary
    assert(ReferenceSimilarity.tokenJaccardKnown("a x", "b y", vocab) == 0.0)
    assert(ReferenceSimilarity.tokenJaccardKnown("x", "a", vocab) == 0.0)
  }

  test("tokenJaccardKnown halves the credit of unknown shared tokens") {
    // shared {beta} is out-of-vocabulary: (1 + 0) / (2·3) vs plain 1/3
    val discounted = ReferenceSimilarity.tokenJaccardKnown("alpha beta", "beta gamma", Set("alpha"))
    assert(math.abs(discounted - 1.0 / 6) < 1e-12)
    assert(discounted < ReferenceSimilarity.tokenJaccard("alpha beta", "beta gamma"))
  }

  test("tokenJaccardKnown with full vocabulary equals plain jaccard") {
    val a = "p q r"; val b = "q r s"
    assert(ReferenceSimilarity.tokenJaccardKnown(a, b, Set("p", "q", "r", "s")) ==
      ReferenceSimilarity.tokenJaccard(a, b))
  }

  for (seed <- 1 to 5) {
    test(s"jaccard is symmetric and bounded (seed=$seed)") {
      val rnd = new Random(seed)
      def randStr() = Seq.fill(1 + rnd.nextInt(5))(('a' + rnd.nextInt(4)).toChar.toString * (1 + rnd.nextInt(3))).mkString(" ")
      (1 to 20).foreach { _ =>
        val a = randStr(); val b = randStr()
        val j1 = ReferenceSimilarity.tokenJaccard(a, b); val j2 = ReferenceSimilarity.tokenJaccard(b, a)
        assert(j1 == j2 && j1 >= 0 && j1 <= 1)
      }
    }
  }

  test("dictionary numbers known tokens of three or more code points first, unknown ones below 0") {
    val sorted = Array("zed", "ab", "\ud83d\ude00a", "abc", "oov").sorted
    val dict = Similarity.dictionary(sorted, Some(Set("zed", "ab", "\ud83d\ude00a", "abc")))
    assert(dict.blockingKeys == 2)
    val id = sorted.zip(dict.ids).toMap
    assert(Seq("abc", "zed", "ab", "\ud83d\ude00a", "oov").map(id) == Seq(0, 1, 2, 3, -1))
  }

  test("encoded token similarity equals tokenJaccardKnown / tokenJaccard bit for bit (property)") {
    val prop = Prop.forAll(SimilaritySpec.messyString, SimilaritySpec.messyString, SimilaritySpec.vocab) {
      (a, b, vocab) =>
        val sorted = (Similarity.tokens(a) ++ Similarity.tokens(b) + "unused").toArray.sorted
        val id = sorted.zip(Similarity.dictionary(sorted, vocab).ids).toMap
        def encode(s: String) = if (s == null) null else Similarity.tokens(s).toArray.map(id).sorted
        val (ea, eb) = (encode(a), encode(b))
        // As in the similarity table: a null side scores 0.
        val got = if (ea == null || eb == null) 0.0 else Similarity.knownJaccard(ea, eb)
        val want = vocab.fold(ReferenceSimilarity.tokenJaccard(a, b))(ReferenceSimilarity.tokenJaccardKnown(a, b, _))
        (java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)) :|
          s"got $got want $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(3000).withInitialSeed(Seed(11L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("knownJaccard's branch-free merge equals the branching merge bit for bit (property)") {
    val prop = Prop.forAll(SimilaritySpec.idSetPair) { case (x, y) =>
      val got = Similarity.knownJaccard(x, y)
      val want = ReferenceSimilarity.knownJaccard(x, y)
      (java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want)) :|
        s"x ${x.mkString(",")} y ${y.mkString(",")}: got $got want $want"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(3000).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("tokens splits like the regex definition, on Java's whitespace only (property)") {
    val prop = Prop.forAll(SimilaritySpec.unicodeString) { s =>
      val scanned = Seq.newBuilder[String]
      Similarity.foreachToken(s)(scanned += _)
      val split = if (s == null) Nil else s.toLowerCase.split("\\s+").toSeq.filter(_.nonEmpty)
      (scanned.result() == split) :| s"scanned ${scanned.result()}, split $split" &&
        (Similarity.tokens(s) == ReferenceTokenIndex.tokens(s)) :| s"tokens ${Similarity.tokens(s)}"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(2000).withInitialSeed(Seed(13L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object SimilaritySpec {

  private val pool = Seq("ab", "cd", "ef", "gh", "ij", "kl")

  /** Pool tokens in mixed case, so repeats and case variants are common. */
  private val token: Gen[String] = for {
    t <- Gen.oneOf(pool)
    upper <- Gen.listOfN(t.length, Gen.prob(0.3))
  } yield t.zip(upper).map { case (c, u) => if (u) c.toUpper else c }.mkString

  private val space: Gen[String] = Gen.oneOf(" ", "  ", "\t", "\n", " \t\n ")

  /** Attribute values: null, empty, whitespace only, or pool tokens joined
    * by mixed whitespace with optional leading and trailing whitespace.
    */
  val messyString: Gen[String] = Gen.frequency(
    1 -> Gen.const(null: String),
    1 -> Gen.const(""),
    1 -> space,
    8 -> (for {
      n <- Gen.choose(1, 6)
      toks <- Gen.listOfN(n, token)
      seps <- Gen.listOfN(n - 1, space)
      lead <- Gen.oneOf(Gen.const(""), space)
      trail <- Gen.oneOf(Gen.const(""), space)
    } yield lead + toks.zipAll(seps, "", "").map { case (t, s) => t + s }.mkString + trail),
  )

  /** A sorted array of distinct token IDs: empty, or drawn from a small
    * range around 0 (so that two sets often share IDs) and from the
    * extremes `Int.MinValue`, `Int.MaxValue` and their neighbours.
    */
  private val idSet: Gen[Array[Int]] = {
    val id = Gen.frequency(
      6 -> Gen.choose(-8, 8),
      1 -> Gen.oneOf(Int.MinValue, Int.MinValue + 1, Int.MaxValue - 1, Int.MaxValue),
      1 -> Gen.choose(Int.MinValue, Int.MaxValue))
    Gen.frequency(1 -> Gen.const(List.empty[Int]), 8 -> Gen.choose(1, 12).flatMap(Gen.listOfN(_, id)))
      .map(_.toArray.distinct.sorted)
  }

  /** Two ID sets: independent, equal, or disjoint (one set split in two). */
  private val idSetPair: Gen[(Array[Int], Array[Int])] = Gen.frequency(
    4 -> Gen.zip(idSet, idSet),
    1 -> idSet.map(x => (x, x.clone())),
    1 -> idSet.flatMap(x => Gen.listOfN(x.length, Gen.prob(0.5)).map { in =>
      val (a, b) = x.zip(in).partition(_._2)
      (a.map(_._1), b.map(_._1))
    }),
  )

  /** No vocabulary, or a subset of the pool (plus a token no value has). */
  val vocab: Gen[Option[Set[String]]] =
    Gen.option(Gen.someOf(pool).map(_.toSet + "zz"))

  /** The characters Java's regex `\s` matches, and others that are
    * whitespace elsewhere (information separator, next line, no-break
    * space, em space) but part of a token here.
    */
  val separators: Seq[String] =
    Seq(" ", "\t", "\n", "\u000B", "\f", "\r", "\u001C", "\u0085", "\u00A0", "\u2003")

  /** Tokens whose lower-casing lengthens them ("İ"), changes Greek final
    * sigma ("ΟΔΟΣ") or leaves the BMP, in mixed case.
    */
  val unicodeTokens: Seq[String] =
    Seq("İ", "İstanbul", "ΟΔΟΣ", "οδος", "\ud83d\ude00", "x\ud83d\ude00Y", "\ud801\udc00", "ab", "Alpha", "ALPHA", "ß")

  /** Null, or tokens and repeated tokens joined by runs of separators. */
  val unicodeString: Gen[String] = Gen.frequency(
    1 -> Gen.const(null: String),
    8 -> (for {
      n <- Gen.choose(0, 6)
      parts <- Gen.listOfN(n, Gen.oneOf(Gen.oneOf(unicodeTokens), Gen.listOfN(3, Gen.oneOf(separators)).map(_.mkString)))
    } yield parts.mkString),
  )
}
