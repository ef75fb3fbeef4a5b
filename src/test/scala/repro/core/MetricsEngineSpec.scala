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
    ClusteringOps.intersection(exp, gold)
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
      assert(MetricsEngine.confusionMatrix(asDf(exp), asDf(gold), n.toLong) ==
        ConfusionMatrix.fromClusterings(exp, gold))
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
