package repro.matching

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec

class BlockingSpec extends SparkSpec {
  import spark.implicits._

  private val records = Seq(
    (0L, "thinkpad x230 laptop"),
    (1L, "thinkpad x230"),
    (2L, "macbook pro laptop"),
    (3L, "macbook air"),
    (4L, null.asInstanceOf[String]),
  ).toDF("id", "name")

  private def pairs(df: org.apache.spark.sql.DataFrame): Set[(Long, Long)] =
    df.as[(Long, Long)].collect().toSet

  test("records sharing a token become candidates") {
    val got = pairs(Blocking.tokenBlocking(records, Seq("name"), maxBlockSize = 10))
    assert(got.contains((0L, 1L))) // share thinkpad, x230
    assert(got.contains((2L, 3L))) // share macbook
    assert(got.contains((0L, 2L))) // share laptop
  }

  test("null values produce no blocking keys") {
    val got = pairs(Blocking.tokenBlocking(records, Seq("name"), 10))
    assert(!got.exists(p => p._1 == 4L || p._2 == 4L))
  }

  test("oversized blocks are dropped") {
    // 'laptop' block has 3 members with cap 2 → the (0,2) laptop-only pair disappears
    val recs = Seq(
      (0L, "alpha laptop"), (1L, "alpha laptop"), (2L, "beta laptop"), (3L, "beta other"),
    ).toDF("id", "name")
    val got = pairs(Blocking.tokenBlocking(recs, Seq("name"), maxBlockSize = 2))
    assert(got.contains((0L, 1L))) // alpha block (size 2) survives
    assert(got.contains((2L, 3L))) // beta block survives
    assert(!got.contains((0L, 2L))) // only shared 'laptop', whose block is oversized
  }

  test("short tokens are ignored") {
    val recs = Seq((0L, "ab cdef"), (1L, "ab cdef")).toDF("id", "name")
    val withShort = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10))
    assert(withShort == Set((0L, 1L))) // via cdef, not ab
    val onlyShort = Seq((0L, "ab"), (1L, "ab")).toDF("id", "name")
    assert(pairs(Blocking.tokenBlocking(onlyShort, Seq("name"), 10)).isEmpty)
  }

  test("pairs are canonical (a < b) and distinct") {
    val got = Blocking.tokenBlocking(records, Seq("name"), 10).collect()
    got.foreach(r => assert(r.getLong(0) < r.getLong(1)))
    assert(got.length == got.distinct.length)
  }

  test("multiple blocking attributes contribute keys") {
    val recs = Seq(
      (0L, "alpha", "shared"), (1L, "beta", "shared"),
    ).toDF("id", "name", "brand")
    assert(pairs(Blocking.tokenBlocking(recs, Seq("name"), 10)).isEmpty)
    assert(pairs(Blocking.tokenBlocking(recs, Seq("name", "brand"), 10)) == Set((0L, 1L)))
  }

  test("knownVocab restricts blocking to known tokens") {
    val recs = Seq((0L, "alpha gamma"), (1L, "alpha delta"), (2L, "gamma beta")).toDF("id", "name")
    val all = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10))
    assert(all == Set((0L, 1L), (0L, 2L)))
    val restricted = pairs(Blocking.tokenBlocking(recs, Seq("name"), 10,
      knownVocab = Some(Set("gamma"))))
    assert(restricted == Set((0L, 2L))) // alpha is out-of-vocabulary now
  }

  test("tokenBlocking and similarities reject a duplicate record id, naming it") {
    val recs = Seq((3L, "alpha beta"), (7L, "alpha gamma"), (3L, "alpha delta")).toDF("id", "name")
    for (run <- Seq(() => Blocking.tokenBlocking(recs, Seq("name"), 10),
        () => Blocking.similarities(recs, Seq("name"), Seq("name"), 10, None))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("record id 3 appears more than once"), e.getMessage)
    }
  }

  test("tokenBlocking and similarities reject a null record id") {
    val recs = Seq((Some(1L), "alpha beta"), (None, "alpha gamma")).toDF("id", "name")
    for (run <- Seq(() => Blocking.tokenBlocking(recs, Seq("name"), 10),
        () => Blocking.similarities(recs, Seq("name"), Seq("name"), 10, None))) {
      val e = intercept[IllegalArgumentException](run())
      assert(e.getMessage.contains("null id"), e.getMessage)
    }
  }

  test("candidate set equals the Spark reference pipeline (property)") {
    val prop = Prop.forAll(BlockingSpec.blockingCase) { case BlockingSpec.Case(rows, attrs, maxBlockSize, vocab) =>
      val recs = rows.toDF("id", "name", "brand")
      // Sorted sequences, not sets, so a pair emitted twice fails too.
      def sortedPairs(df: org.apache.spark.sql.DataFrame) = df.as[(Long, Long)].collect().toSeq.sorted
      val got = sortedPairs(Blocking.tokenBlocking(recs, attrs, maxBlockSize, vocab))
      val want = sortedPairs(ReferenceBlocking.tokenBlocking(recs, attrs, maxBlockSize, vocab))
      (got == want) :| s"index-only ${got.diff(want)}, reference-only ${want.diff(got)}"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(20).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }
}

object BlockingSpec {

  final case class Case(
      rows: Seq[(Long, String, String)], attrs: Seq[String], maxBlockSize: Int, vocab: Option[Set[String]])

  /** Mixed case, non-ASCII, non-BMP ("😀a" is 2 code points but 3 UTF-16
    * units, so too short to block) and short tokens.
    */
  private val pool = Seq("alpha", "Beta", "GAMMA", "ab", "Zu", "straße", "ÉCOLE", "école", "Жук", "ΟΔΟΣ",
    "😀a", "😀😀😀", "x😀y", "日本語", "naïve", "NAÏVE")

  private val space: Gen[String] = Gen.oneOf(" ", "  ", "\t", "\n", " \t ")

  private val value: Gen[String] = Gen.frequency(
    1 -> Gen.const(null: String),
    1 -> Gen.const(""),
    1 -> space,
    6 -> (for {
      n <- Gen.choose(1, 4)
      toks <- Gen.listOfN(n, Gen.oneOf(pool))
      sep <- space
      lead <- Gen.oneOf("", " ")
    } yield lead + toks.mkString(sep)),
  )

  /** Records with distinct, unordered IDs, one or two blocking attributes,
    * an optional vocabulary, and one block of exactly `maxBlockSize` and one
    * of `maxBlockSize + 1` members ("edgetok" and "overtok").
    */
  val blockingCase: Gen[Case] = for {
    n <- Gen.choose(3, 24)
    ids <- Gen.listOfN(n, Gen.choose(-1000L, 1L << 40)).map(_.distinct).suchThat(_.size >= 3)
    names <- Gen.listOfN(ids.size, value)
    brands <- Gen.listOfN(ids.size, value)
    attrs <- Gen.oneOf(Seq("name"), Seq("name", "brand"))
    maxBlockSize <- Gen.choose(1, ids.size - 1)
    order <- Gen.pick(ids.size, ids.indices)
    vocab <- Gen.option(Gen.someOf(pool.map(_.toLowerCase) ++ Seq("edgetok", "overtok")).map(_.toSet))
  } yield {
    val edge = order.take(maxBlockSize).toSet
    val over = order.take(maxBlockSize + 1).toSet
    def tagged(k: Int, v: String) =
      Seq(edge(k) -> "EdgeTok", over(k) -> "overtok").collect { case (true, t) => t }.foldLeft(v) {
        case (null, t) => t
        case (acc, t)  => s"$acc $t"
      }
    val rows = ids.indices.map(k => (ids(k), tagged(k, names(k)), brands(k)))
    Case(rows, attrs, maxBlockSize, vocab)
  }
}
