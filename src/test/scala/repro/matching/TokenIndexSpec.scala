package repro.matching

import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.types.{LongType, StringType, StructField, StructType}
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec

class TokenIndexSpec extends SparkSpec {
  import spark.implicits._

  private def frame(parts: Seq[Seq[Row]]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(parts, parts.size).flatMap(identity), TokenIndexSpec.schema)

  test("the token index equals the three-job reference: ids, encodings, blocks and pairs (property)") {
    val prop = Prop.forAll(TokenIndexSpec.indexCase) { case TokenIndexSpec.Case(parts, blocking, scored, maxBlockSize, vocab) =>
      val recs = frame(parts)
      val got = TokenIndex(recs, blocking, scored)
      val want = ReferenceTokenIndex(recs, blocking, scored)
      def encodings(index: TokenIndex) = index.encoded.toSeq.map(_.toSeq.map(Option(_).map(_.toSeq)))
      def csr(p: Postings) = Seq(p.blockStart, p.blockMembers, p.recordStart, p.recordBlocks).map(_.toSeq)
      def pairs(index: TokenIndex, p: Postings) = p.pairs(0, p.blocks)((i, j) => Row(index.ids(i), index.ids(j))).toSeq
      val index = (got.ids.toSeq == want.ids.toSeq) :| s"ids ${got.ids.toSeq} vs ${want.ids.toSeq}" &&
        (got.tokens.toSeq == want.tokens.toSeq) :| s"tokens ${got.tokens.toSeq} vs ${want.tokens.toSeq}" &&
        (encodings(got) == encodings(want)) :| s"encodings ${encodings(got)} vs ${encodings(want)}" &&
        (got.blockingTokens.toSeq.map(_.toSeq) == want.blockingTokens.toSeq.map(_.toSeq)) :| "blocking tokens"
      Seq(None, Some(vocab)).foldLeft(index) { (prop, v) =>
        val (p, q) = (got.postings(Similarity.known(got.tokens, v), maxBlockSize), ReferenceTokenIndex.postings(want, v, maxBlockSize))
        prop && (csr(p) == csr(q)) :| s"vocab $v: blocks ${csr(p)} vs ${csr(q)}" &&
          (pairs(got, p) == pairs(want, q)) :| s"vocab $v: pairs ${pairs(got, p)} vs ${pairs(want, q)}"
      }
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(Seed(23L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("tokenBlocking and similarities build their index in one Spark job") {
    val recs = Seq(
      (0L, "thinkpad x230 laptop", "intel chip"), (1L, "thinkpad x230", "intel chip"),
      (2L, "macbook pro laptop", "apple chip"), (3L, "macbook air", null),
      (4L, null, "apple m1000"), (5L, "zenbook flip", "intel"),
    ).toDF("id", "name", "cpu").repartition(4).cache()
    recs.count()
    val vocab = Set("thinkpad", "x230", "macbook", "laptop", "intel")
    val (candidates, blockingJobs) = jobsOf(Blocking.tokenBlocking(recs, Seq("name", "cpu"), 10))
    val (sims, similarityJobs) = jobsOf(Blocking.similarities(recs, Seq("name", "cpu"), Seq("name"), 50, Some(vocab)))
    assert(blockingJobs == 1, s"tokenBlocking started $blockingJobs Spark jobs")
    assert(similarityJobs == 1, s"similarities started $similarityJobs Spark jobs")
    assert(candidates.count() == 7 && sims.count() == 3)
    recs.unpersist()
  }
}

object TokenIndexSpec {

  val schema: StructType = StructType(Seq(
    StructField("id", LongType), StructField("name", StringType),
    StructField("brand", StringType), StructField("desc", StringType)))

  final case class Case(
      parts: Seq[Seq[Row]], blocking: Seq[String], scored: Seq[String], maxBlockSize: Int, vocab: Set[String])

  private val pool = SimilaritySpec.unicodeTokens ++ Seq("alpha", "Beta", "straße", "école", "日本語", "😀😀😀")

  /** Pool tokens, repeats included, joined by runs of Java whitespace and of
    * characters that only look like whitespace; a token only partition `p`
    * holds ("onlyp<p>") in some values.
    */
  private def value(p: Int): Gen[String] = Gen.frequency(
    1 -> Gen.const(null: String),
    1 -> Gen.const(""),
    8 -> (for {
      n <- Gen.choose(1, 5)
      toks <- Gen.listOfN(n, Gen.frequency(6 -> Gen.oneOf(pool), 1 -> Gen.const(s"ONLYp$p")))
      seps <- Gen.listOfN(n, Gen.listOfN(2, Gen.oneOf(SimilaritySpec.separators)).map(_.mkString))
    } yield toks.zip(seps).map { case (t, s) => t + s }.mkString),
  )

  /** Records with distinct, unordered IDs over 1 to 8 partitions, some of
    * them empty; one or two blocking attributes; no, some or all attributes
    * scored; a vocabulary.
    */
  val indexCase: Gen[Case] = for {
    n <- Gen.choose(2, 30)
    ids <- Gen.listOfN(n, Gen.choose(-1000L, 1L << 40)).map(_.distinct)
    partitions <- Gen.choose(1, 8)
    where <- Gen.listOfN(ids.size, Gen.choose(0, partitions - 1))
    rows <- Gen.sequence[Seq[Row], Row](ids.zip(where).map { case (id, p) =>
      Gen.listOfN(3, value(p)).map(v => Row(id, v(0), v(1), v(2)))
    })
    blocking <- Gen.oneOf(Seq("name"), Seq("name", "brand"))
    scored <- Gen.oneOf(Nil, Seq("name", "desc"), Seq("desc", "brand", "name"))
    maxBlockSize <- Gen.choose(1, 10)
    vocab <- Gen.someOf(pool.map(_.toLowerCase) :+ "onlyp0").map(_.toSet)
  } yield {
    val parts = (0 until partitions).map(p => rows.zip(where).collect { case (r, `p`) => r })
    Case(parts, blocking, scored, maxBlockSize, vocab)
  }
}
