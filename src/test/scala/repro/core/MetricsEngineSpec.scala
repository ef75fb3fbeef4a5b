package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import scala.util.Random

import repro.{Oracle, SparkSpec}

class MetricsEngineSpec extends SparkSpec {
  import spark.implicits._

  private def asDf(arr: Array[Int]) =
    arr.zipWithIndex.map { case (c, i) => (i.toLong, c.toLong) }.toSeq.toDF("id", "cluster")

  /** One row per (ecluster, gcluster) of the intersection clustering with
    * its C(n, 2) pair contribution: the DataFrame form of the true
    * positives, checked against DuckDB below.
    */
  private def intersectionPairContributions(exp: DataFrame, gold: DataFrame): DataFrame =
    ReferenceClusterings.intersection(exp, gold)
      .groupBy(col("ecluster"), col("gcluster"))
      .agg(expr("count(1) * (count(1) - 1) / 2").cast("long").as("pairs"))

  test("confusionMatrix on identical clusterings") {
    val c = Array(0, 0, 1, 1, 2)
    val m = MetricsEngine.confusionMatrix(asDf(c), asDf(c), 5)
    assert(m == ConfusionMatrix(2, 0, 0, 8))
  }

  test("confusionMatrix matches the driver-side implementation") {
    val exp = Array(0, 0, 0, 1, 1, 2, 3)
    val gold = Array(0, 0, 1, 1, 1, 2, 2)
    val got = MetricsEngine.confusionMatrix(asDf(exp), asDf(gold), 7)
    assert(got == ConfusionMatrix.fromClusterings(exp, gold))
  }

  test("confusionMatrix rejects clusterings that do not join on n records, naming both counts") {
    val c = Array(0, 0, 1, 1, 2)
    val e = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(asDf(c), asDf(c.take(4)), 5))
    assert(e.getMessage.contains("join on 4 records, but n is 5"), e.getMessage)
    val wrongN = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(asDf(c), asDf(c), 6))
    assert(wrongN.getMessage.contains("join on 5 records, but n is 6"), wrongN.getMessage)
  }

  test("confusionMatrix starts exactly one Spark job") {
    val exp = spark.range(0, 3000, 1, 4).select(col("id"), (col("id") % 7).as("cluster"))
    val gold = spark.range(0, 3000, 1, 3).select(col("id"), (col("id") % 5).as("cluster"))
    val (m, jobs) = jobsOf(MetricsEngine.confusionMatrix(exp, gold, 3000))
    assert(jobs == 1, s"confusionMatrix started $jobs Spark jobs")
    assert(m == ConfusionMatrix.fromClusterings(Array.tabulate(3000)(_ % 7), Array.tabulate(3000)(_ % 5)))
  }

  test("confusionMatrix rejects a record ID twice on either side, naming the ID and the side") {
    val once = asDf(Array(0, 0, 1))
    val twice = Seq((0L, 0L), (1L, 0L), (2L, 1L), (1L, 1L)).toDF("id", "cluster")
    val e = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(twice, once, 3))
    assert(e.getMessage.contains("record 1 appears twice in the experiment clustering"), e.getMessage)
    val g = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(once, twice, 3))
    assert(g.getMessage.contains("record 1 appears twice in the gold clustering"), g.getMessage)
  }

  test("confusionMatrix rejects a null cluster on either side, naming the ID and the side") {
    val full = asDf(Array(0, 0, 1))
    val holed = Seq((0L, Option(0L)), (1L, Option(0L)), (2L, None)).toDF("id", "cluster")
    val e = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(holed, full, 3))
    assert(e.getMessage.contains("record 2 has a null cluster in the experiment clustering"), e.getMessage)
    val g = intercept[IllegalArgumentException](MetricsEngine.confusionMatrix(full, holed, 3))
    assert(g.getMessage.contains("record 2 has a null cluster in the gold clustering"), g.getMessage)
  }

  test("confusionMatrix joins no record with a null ID") {
    val exp = Seq((Option(0L), 0L), (Option(1L), 0L), (None, 0L), (Option(2L), 1L)).toDF("id", "cluster")
    val gold = Seq((Option(0L), 5L), (None, 5L), (Option(1L), 6L), (Option(2L), 6L)).toDF("id", "cluster")
    assert(MetricsEngine.confusionMatrix(exp, gold, 3) == ConfusionMatrix.fromClusterings(Array(0, 0, 1), Array(5, 6, 6)))
  }

  test("confusionMatrix on Figure 10 final state") {
    val exp = Array(0, 0, 0, 0)
    val gold = Array(0, 0, 1, 1)
    assert(MetricsEngine.confusionMatrix(asDf(exp), asDf(gold), 4) == ConfusionMatrix(2, 4, 0, 0))
  }

  for (seed <- 1 to 4) {
    test(s"confusionMatrix ≡ driver implementation on random clusterings (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 40
      val exp = Array.fill(n)(rnd.nextInt(9))
      val gold = Array.fill(n)(rnd.nextInt(9))
      val want = ConfusionMatrix.fromClusterings(exp, gold)
      assert(MetricsEngine.confusionMatrix(asDf(exp), asDf(gold), n.toLong) == want)
      assert(ReferenceClusterings.confusionMatrix(asDf(exp), asDf(gold), n.toLong) == want)
    }
  }

  test("confusionMatrixFromPairs on explicit pair sets") {
    val expPairs = Seq((0L, 1L), (2L, 3L), (1L, 0L)).toDF("a", "b")
    val goldPairs = Seq((0L, 1L), (1L, 2L)).toDF("a", "b")
    val m = MetricsEngine.confusionMatrixFromPairs(expPairs, goldPairs, 4)
    assert(m == ConfusionMatrix(1, 1, 1, 3))
  }

  test("confusionMatrixFromPairs allows non-transitively-closed experiments (pipeline stages)") {
    // candidate-generation stage output: pairs, not clusters
    val cand = Seq((0L, 1L), (1L, 2L)).toDF("a", "b") // closure would add (0,2)
    val gold = Seq((0L, 1L), (1L, 2L), (0L, 2L)).toDF("a", "b")
    val m = MetricsEngine.confusionMatrixFromPairs(cand, gold, 4)
    assert(m.tp == 2 && m.fn == 1 && m.fp == 0)
  }

  test("oracle: intersection pair contributions match DuckDB") {
    val rnd = new Random(3)
    val n = 60
    val exp = asDf(Array.fill(n)(rnd.nextInt(8)))
    val gold = asDf(Array.fill(n)(rnd.nextInt(8))).withColumnRenamed("cluster", "gcluster")
      .withColumnRenamed("id", "gid")
    val goldNormalized = gold.select($"gid".as("id"), $"gcluster".as("cluster"))
    val sparkSide = intersectionPairContributions(exp, goldNormalized)
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT e.cluster AS ecluster, g.cluster AS gcluster,
        |       CAST(count(*) * (count(*) - 1) / 2 AS BIGINT) AS pairs
        |FROM exp e JOIN gold g ON e.id = g.id
        |GROUP BY e.cluster, g.cluster""".stripMargin,
      "exp" -> exp,
      "gold" -> goldNormalized,
    )
  }

  test("metricsTable lists every registered metric once") {
    val rows = MetricsEngine.metricsTable(ConfusionMatrix(1, 2, 3, 4))
    assert(rows.map(_._1).toSet == PairMetrics.byName.keySet)
    assert(rows.size == PairMetrics.byName.size)
  }
}
