package repro.core

import org.apache.spark.sql.functions._
import repro.{Oracle, SparkSpec}

class ClusteringOpsSpec extends SparkSpec {
  import spark.implicits._

  private def clustering(pairs: (Long, Long)*) = pairs.toDF("id", "cluster")

  test("canonicalPairs orders, dedups, and drops self-pairs") {
    val raw = Seq((2L, 1L), (1L, 2L), (3L, 3L), (4L, 5L)).toDF("a", "b")
    val got = SetComparison.canonicalPairs(raw).as[(Long, Long)].collect().toSet
    assert(got == Set((1L, 2L), (4L, 5L)))
  }

  test("a pair with a null endpoint fails every pair-set query that reads it, naming the pair") {
    val pairs = Seq((0L, Option(1L)), (1L, None), (2L, Option(3L))).toDF("a", "b")
    val gold = Seq((0L, 1L)).toDF("a", "b")
    val queries = Seq[(String, () => Any)](
      "canonicalPairs" -> (() => SetComparison.canonicalPairs(pairs).collect()),
      "vennRegions" -> (() => SetComparison.vennRegions(Seq(pairs, gold)).collect()),
      "consensusDeviation" -> (() => NoGroundTruth.consensusDeviation(Seq(gold, pairs))),
      "missingClosurePairs" -> (() => NoGroundTruth.missingClosurePairs(pairs)),
      "confusionMatrixFromPairs" -> (() => MetricsEngine.confusionMatrixFromPairs(pairs, gold, 4)))
    queries.foreach { case (name, query) =>
      val e = intercept[Exception](query())
      assert(e.getMessage.contains("pair (1, null) has a null endpoint"), s"$name: ${e.getMessage}")
    }
  }

  test("pairsFromClustering enumerates intra-cluster pairs") {
    val c = clustering((0L, 10L), (1L, 10L), (2L, 10L), (3L, 20L), (4L, 20L), (5L, 30L))
    val got = ReferencePairs.pairsFromClustering(c).as[(Long, Long)].collect().toSet
    assert(got == Set((0L, 1L), (0L, 2L), (1L, 2L), (3L, 4L)))
  }

  test("intersection joins the two clusterings by record") {
    val exp = clustering((0L, 1L), (1L, 1L), (2L, 2L))
    val gold = clustering((0L, 7L), (1L, 8L), (2L, 7L))
    val got = ReferenceClusterings.intersection(exp, gold)
      .as[(Long, Long, Long)].collect().toSet
    assert(got == Set((0L, 1L, 7L), (1L, 1L, 8L), (2L, 2L, 7L)))
  }

  test("oracle: per-cluster counts match DuckDB") {
    val c = (0L until 50L).map(i => (i, i % 7)).toDF("id", "cluster")
    val sparkSide = c.groupBy($"cluster").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(
      sparkSide,
      "SELECT cluster, count(*) AS n FROM clust GROUP BY cluster",
      "clust" -> c,
    )
  }

  test("oracle: intra-cluster pair enumeration matches a DuckDB self-join") {
    val c = (0L until 30L).map(i => (i, i % 5)).toDF("id", "cluster")
    val sparkSide = ReferencePairs.pairsFromClustering(c)
    Oracle.assertEquivalent(
      sparkSide,
      """SELECT l.id AS a, r.id AS b
        |FROM clust l JOIN clust r
        |  ON l.cluster = r.cluster AND CAST(l.id AS BIGINT) < CAST(r.id AS BIGINT)""".stripMargin,
      "clust" -> c,
    )
  }

  test("oracle: pair count per cluster matches DuckDB arithmetic") {
    val c = (0L until 40L).map(i => (i, i % 6)).toDF("id", "cluster")
    val sparkSide = c.groupBy($"cluster")
      .agg((count(lit(1)) * (count(lit(1)) - 1) / 2).cast("long").as("pairs"))
    Oracle.assertEquivalent(
      sparkSide,
      "SELECT cluster, CAST(count(*) * (count(*) - 1) / 2 AS BIGINT) AS pairs FROM clust GROUP BY cluster",
      "clust" -> c,
    )
  }
}
