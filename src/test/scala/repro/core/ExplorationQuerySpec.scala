package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.emdata.{DatasetSpecs, EmGen}
import repro.tables.Table3

/** Each profiling and exploration measure is one Spark query: it equals its
  * cache-then-count reference in [[ReferenceExploration]] exactly, on tiny
  * generated datasets over all of Table 3's attributes, and stays within a
  * Spark job budget the reference exceeds.
  */
class ExplorationQuerySpec extends SparkSpec {
  import ExplorationQuerySpec.Case
  import spark.implicits._

  private val seeds = Seq(3L, 4L, 5L)
  private val attrs = Table3.attrs

  private lazy val cases: Seq[Case] = seeds.map { seed =>
    val d = EmGen.generate(spark, DatasetSpecs.tiny(n = 300, seed = seed))
    val sims = Table3.familySims(d.records, d.spec.pool.toSet)
    val cuts = Seq("x2-a" -> 0.5, "x3-a" -> 0.6, "x2-b" -> 0.8)
    val experiments = cuts.zipWithIndex.map { case ((name, q), k) =>
      val score = Table3.scoreOf(Table3.solutions.find(_.name == name).get)
      val scores = sims.select(score).as[Double].collect().sorted
      val cut = sims.filter(score >= scores((q * (scores.length - 1)).toInt))
      if (k == 1) cut.select(col("b").as("a"), col("a").as("b")) else cut.select("a", "b")
    }
    Case(d, sims, experiments)
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  private def ratioRows(df: DataFrame): Seq[(String, Long, Long, Long)] =
    df.collect().toSeq.map(r => (r.getString(0), r.getLong(1), r.getLong(2), bits(r.getDouble(3))))

  test("vocabularySimilarity equals its cached reference, in at most 4 Spark jobs") {
    for ((c, other) <- cases.zip(cases.tail :+ cases.head)) {
      val (got, jobs) = jobsOf(Profiling.vocabularySimilarity(c.d.records, attrs, other.d.records, attrs))
      val want = ReferenceExploration.vocabularySimilarity(c.d.records, attrs, other.d.records, attrs)
      assert(bits(got) == bits(want), s"${c.d.spec.name} seed ${c.d.spec.seed}: VS $got, reference $want")
      assert(got > 0 && got < 1, s"seed ${c.d.spec.seed}: VS $got")
      assert(jobs <= 4, s"seed ${c.d.spec.seed}: vocabularySimilarity started $jobs Spark jobs")
    }
  }

  test("confusionMatrixFromPairs equals its cached reference, in at most 4 Spark jobs") {
    for (c <- cases; (exp, k) <- c.experiments.zipWithIndex) {
      val n = c.d.spec.nRecords.toLong
      val (got, jobs) = jobsOf(MetricsEngine.confusionMatrixFromPairs(exp, c.goldPairs, n))
      val want = ReferenceExploration.confusionMatrixFromPairs(exp, c.goldPairs, n)
      assert(got == want, s"seed ${c.d.spec.seed}, experiment $k: $got, reference $want")
      assert(got.tp > 0 && got.fp > 0 && got.fn > 0, s"seed ${c.d.spec.seed}, experiment $k: $got")
      assert(jobs <= 4, s"seed ${c.d.spec.seed}, experiment $k: confusionMatrixFromPairs started $jobs Spark jobs")
    }
  }

  test("consensusDeviation equals its cached reference, in at most 5 Spark jobs for 3 experiments") {
    for (c <- cases) {
      val (got, jobs) = jobsOf(NoGroundTruth.consensusDeviation(c.experiments))
      val want = ReferenceExploration.consensusDeviation(c.experiments)
      assert(got == want, s"seed ${c.d.spec.seed}: $got, reference $want")
      assert(got.exists(_._2 > 0), s"seed ${c.d.spec.seed}: no experiment deviates")
      assert(jobs <= 5, s"seed ${c.d.spec.seed}: consensusDeviation started $jobs Spark jobs")
    }
  }

  test("nullRatio and equalRatio equal their cached references, null `correct` included, in at most 5 Spark jobs") {
    for (c <- cases) {
      // Candidates classified by x2-a's median cut against gold; every
      // seventh pair has no label.
      val gold = c.d.goldArray
      val score = Table3.scoreOf(Table3.solutions.head)
      val scored = c.sims.select(col("a"), col("b"), score).as[(Long, Long, Double)].collect()
      val t = scored.map(_._3).sorted.apply(scored.length / 2)
      val pairs = scored.zipWithIndex.map { case ((a, b, s), i) =>
        (a, b, if (i % 7 == 0) None else Some((s >= t) == (gold(a.toInt) == gold(b.toInt))))
      }.toSeq.toDF("a", "b", "correct")
      for ((name, f, ref) <- Seq(
        ("nullRatio", ErrorAnalysis.nullRatio _, ReferenceExploration.nullRatio _),
        ("equalRatio", ErrorAnalysis.equalRatio _, ReferenceExploration.equalRatio _),
      )) {
        val (frame, jobs) = jobsOf(f(pairs, c.d.records, attrs))
        val (got, want) = (ratioRows(frame), ratioRows(ref(pairs, c.d.records, attrs)))
        assert(got == want, s"seed ${c.d.spec.seed}: $name $got, reference $want")
        assert(got.map(_._1) == attrs && got.exists(_._3 > 0), s"seed ${c.d.spec.seed}: $name $got")
        assert(jobs <= 5, s"seed ${c.d.spec.seed}: $name started $jobs Spark jobs")
      }
    }
  }

  test("recordEntropy equals its reference bit for bit, and building its frame starts no Spark job") {
    for (c <- cases) {
      val (frame, jobs) = jobsOf(SortingStrategies.recordEntropy(c.d.records, attrs))
      assert(jobs == 0, s"seed ${c.d.spec.seed}: building recordEntropy started $jobs Spark jobs")
      def byId(df: DataFrame): Seq[(Long, Long)] =
        df.collect().toSeq.map(r => (r.getLong(0), bits(r.getDouble(1)))).sorted
      val got = byId(frame)
      assert(got.length == c.d.spec.nRecords)
      assert(got == byId(ReferenceExploration.recordEntropy(c.d.records, attrs)), s"seed ${c.d.spec.seed}")
    }
  }
}

object ExplorationQuerySpec {

  /** A tiny dataset, the X2 family's similarity table over it, and three
    * experiments cut from solution scores at a score quantile each; the
    * second has `a` and `b` swapped.
    */
  final case class Case(d: EmGen.EmDataset, sims: DataFrame, experiments: Seq[DataFrame]) {
    def goldPairs: DataFrame = d.labeledPairs.filter(col("label")).select("a", "b")
  }
}
