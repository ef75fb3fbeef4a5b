package repro.core

import org.apache.spark.sql.functions.{col, concat, lit, when}
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.{Oracle, SparkSpec}
import repro.matching.SimilaritySpec

class ProfilingSpec extends SparkSpec {
  import spark.implicits._

  private val records = Seq(
    (0L, "alpha beta", "x"),
    (1L, null.asInstanceOf[String], "y z"),
    (2L, "gamma", null.asInstanceOf[String]),
    (3L, "delta epsilon zeta", "x"),
  ).toDF("id", "name", "tag")

  test("sparsity counts nulls over all attribute cells") {
    // 2 nulls out of 8 cells
    assert(Profiling.sparsity(records, Seq("name", "tag")) == 0.25)
  }

  test("sparsity of a dense dataset is 0") {
    val dense = Seq((0L, "a"), (1L, "b")).toDF("id", "v")
    assert(Profiling.sparsity(dense, Seq("v")) == 0.0)
  }

  test("textuality is the mean word count over non-null values") {
    // name: 2, 1, 3 words; tag: 1, 2, 1 words → mean of (2,1,3,1,2,1) = 10/6
    assert(math.abs(Profiling.textuality(records, Seq("name", "tag")) - 10.0 / 6) < 1e-9)
  }

  test("textuality leaves out empty and whitespace-only values") {
    val v = Seq("a b", "", "   ", null).toDF("v")
    assert(Profiling.textuality(v, Seq("v")) == 2.0)
  }

  test("textuality of empty input is 0") {
    val empty = Seq.empty[(Long, String)].toDF("id", "v")
    assert(Profiling.textuality(empty, Seq("v")) == 0.0)
  }

  test("tupleCount") {
    assert(Profiling.tupleCount(records) == 4)
  }

  test("positiveRatio from a gold clustering") {
    val gold = Seq((0L, 0L), (1L, 0L), (2L, 1L), (3L, 2L)).toDF("id", "cluster")
    // 1 duplicate pair out of C(4,2)=6
    assert(math.abs(Profiling.positiveRatio(gold) - 1.0 / 6) < 1e-12)
  }

  test("vocabulary is lower-cased distinct whitespace tokens over the attributes") {
    val vocab = Profiling.vocabulary(records, Seq("name", "tag"))
      .as[String].collect().toSet
    assert(vocab == Set("alpha", "beta", "gamma", "delta", "epsilon", "zeta", "x", "y", "z"))
  }

  test("vocabularySimilarity is the Jaccard of vocabularies") {
    val d1 = Seq((0L, "a b c")).toDF("id", "v")
    val d2 = Seq((0L, "b c d")).toDF("id", "v")
    assert(math.abs(Profiling.vocabularySimilarity(d1, Seq("v"), d2, Seq("v")) - 0.5) < 1e-12)
  }

  test("vocabularySimilarity of identical datasets is 1") {
    val d = Seq((0L, "a b")).toDF("id", "v")
    assert(Profiling.vocabularySimilarity(d, Seq("v"), d, Seq("v")) == 1.0)
  }

  test("profile bundles all four dataset-level metrics") {
    val gold = Seq((0L, 0L), (1L, 0L), (2L, 1L), (3L, 2L)).toDF("id", "cluster")
    val p = Profiling.profile(records, gold, Seq("name", "tag"))
    assert(p.sparsity == 0.25)
    assert(p.textuality == 10.0 / 6)
    assert(p.tupleCount == 4)
    assert(math.abs(p.positiveRatio - 1.0 / 6) < 1e-12)
  }

  test("profile equals the four metrics and a driver reference, in at most 2 Spark jobs (property)") {
    val prop = Prop.forAll(ProfilingSpec.profileCase) { case ProfilingSpec.Case(rows, attrs, goldRows) =>
      val recs = rows.toDF("id", "v1", "v2")
      val gold = goldRows.toDF("id", "cluster")
      val (p, jobs) = jobsOf(Profiling.profile(recs, gold, attrs))
      val single = Profiling.Profile(Profiling.sparsity(recs, attrs), Profiling.textuality(recs, attrs),
        Profiling.tupleCount(recs), Profiling.positiveRatio(gold))
      val want = ProfilingSpec.reference(rows, attrs, goldRows)
      val regex = ReferenceProfiling.profile(recs, gold, attrs)
      (p == single) :| s"profile $p, single-metric functions $single" &&
        (p == want) :| s"profile $p, driver reference $want" &&
        ProfilingSpec.sameBits(p, regex) :| s"profile $p, regex and shuffle reference $regex" &&
        (jobs <= 2) :| s"profile started $jobs Spark jobs"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(25).withInitialSeed(Seed(29L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("the profile runs 2 Spark jobs of one stage each, positiveRatio one stage") {
    val recs = spark.range(0, 400, 1, 8).select(col("id"),
      when(col("id") % 5 === 0, lit(null)).otherwise(concat(lit("w "), col("id").cast("string"), lit("\tx"))).as("v"))
    val gold = spark.range(0, 400, 1, 8).select(col("id"),
      when(col("id") % 7 === 0, lit(null)).otherwise(col("id") / 3).cast("long").as("cluster"))
    val want = ReferenceProfiling.profile(recs, gold, Seq("v"))
    val (p, jobs, stages) = org.apache.spark.JobCounter(spark.sparkContext)(Profiling.profile(recs, gold, Seq("v")))
    assert(ProfilingSpec.sameBits(p, want), s"profile $p, reference $want")
    assert(jobs == 2 && stages == 2, s"profile started $jobs Spark jobs and $stages stages")
    val (ratio, ratioStages) = stagesOf(Profiling.positiveRatio(gold))
    assert(ratio == want.positiveRatio)
    assert(ratioStages == 1, s"positiveRatio submitted $ratioStages stages")
  }

  test("oracle: null counts per attribute match DuckDB") {
    val sparkSide = records.agg(
      org.apache.spark.sql.functions.sum(
        org.apache.spark.sql.functions.when($"name".isNull, 1).otherwise(0)).as("name_nulls"),
      org.apache.spark.sql.functions.sum(
        org.apache.spark.sql.functions.when($"tag".isNull, 1).otherwise(0)).as("tag_nulls"),
    )
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT sum(CASE WHEN name IS NULL THEN 1 ELSE 0 END) AS name_nulls,
        |       sum(CASE WHEN tag IS NULL THEN 1 ELSE 0 END) AS tag_nulls
        |FROM recs""".stripMargin,
      "recs" -> records,
    )
  }

  test("oracle: distinct token vocabulary matches DuckDB string_split") {
    val d = Seq((0L, "A b c"), (1L, "b D")).toDF("id", "v")
    val sparkSide = Profiling.vocabulary(d, Seq("v")).withColumnRenamed("token", "tok")
    Oracle.assertEquivalent(
      sparkSide,
      "SELECT DISTINCT lower(unnest(string_split(v, ' '))) AS tok FROM d WHERE v IS NOT NULL",
      "d" -> d,
    )
  }
}

object ProfilingSpec {

  final case class Case(rows: Seq[(Long, String, String)], attrs: Seq[String], gold: Seq[(Long, Option[Long])])

  /** Values as the similarity tests make them: null, empty, whitespace
    * only, tabs, newlines, runs of spaces, leading and trailing whitespace,
    * and tokens that change under lower-casing or leave the BMP joined by
    * every character Java's regex `\s` matches and by separators it does
    * not match. Gold cluster IDs that are sparse, negative, extreme or
    * null; empty inputs.
    */
  val profileCase: Gen[Case] = for {
    n <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 12))
    value = Gen.oneOf(SimilaritySpec.messyString, SimilaritySpec.unicodeString)
    v1 <- Gen.listOfN(n, value)
    v2 <- Gen.listOfN(n, value)
    attrs <- Gen.oneOf(Seq("v1"), Seq("v2"), Seq("v1", "v2"))
    g <- Gen.frequency(1 -> Gen.const(0), 6 -> Gen.choose(1, 15))
    clusters <- Gen.listOfN(g, Gen.option(Gen.oneOf(-7L, -1L, 0L, 3L, 1L << 40, Long.MinValue)))
  } yield Case(v1.zip(v2).zipWithIndex.map { case ((a, b), i) => (i.toLong, a, b) }, attrs,
    clusters.zipWithIndex.map { case (c, i) => (i.toLong, c) })

  /** Whether two profiles are equal bit for bit. */
  def sameBits(p: Profiling.Profile, q: Profiling.Profile): Boolean = {
    def bits(d: Double) = java.lang.Double.doubleToRawLongBits(d)
    bits(p.sparsity) == bits(q.sparsity) && bits(p.textuality) == bits(q.textuality) &&
      p.tupleCount == q.tupleCount && bits(p.positiveRatio) == bits(q.positiveRatio)
  }

  /** The four metrics computed on the driver from their definitions. */
  def reference(rows: Seq[(Long, String, String)], attrs: Seq[String], gold: Seq[(Long, Option[Long])]): Profiling.Profile = {
    val values = rows.flatMap { case (_, v1, v2) => attrs.map(a => if (a == "v1") v1 else v2) }
    val nulls = values.count(_ == null)
    val words = values.filter(_ != null).map(_.split("\\s+").count(_.nonEmpty)).filter(_ > 0)
    val pairs = gold.groupBy(_._2).values.map(c => ConfusionMatrix.pairsOf(c.size.toLong)).sum
    val all = ConfusionMatrix.pairsOf(gold.size.toLong)
    Profiling.Profile(
      if (values.isEmpty) 0.0 else nulls.toDouble / values.size,
      if (words.isEmpty) 0.0 else words.sum.toDouble / words.size,
      rows.size.toLong,
      if (all == 0) 0.0 else pairs.toDouble / all)
  }
}
