package repro.graph

import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper
import org.apache.spark.sql.execution.exchange.Exchange
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalacheck.util.Pretty

import repro.SparkSpec
import repro.core.{ConfusionMatrix, MetricsEngine, ReferenceClusterings, ReferencePairs}
import repro.unionfind.UnionFind

class ConnectedComponentsSpec extends SparkSpec {
  import spark.implicits._

  private def records(n: Int) = spark.range(n).toDF("id")

  private def edgesDf(pairs: (Long, Long)*) =
    pairs.toDF("src", "dst")

  private def clustersOf(df: org.apache.spark.sql.DataFrame): Map[Long, Long] =
    df.collect().map(r => r.getLong(0) -> r.getLong(1)).toMap

  test("no edges → all singletons") {
    val c = clustersOf(ConnectedComponents.closure(records(4), edgesDf()))
    assert(c == Map(0L -> 0L, 1L -> 1L, 2L -> 2L, 3L -> 3L))
  }

  test("one edge merges two records") {
    val c = clustersOf(ConnectedComponents.closure(records(4), edgesDf((1L, 3L))))
    assert(c(1) == c(3))
    assert(c(0) != c(1) && c(2) != c(1))
  }

  test("transitive chain collapses to one component (min label)") {
    val c = clustersOf(ConnectedComponents.closure(records(6), edgesDf((0L, 1L), (1L, 2L), (2L, 3L))))
    assert(Set(c(0), c(1), c(2), c(3)).size == 1)
    assert(c(0) == 0L)
    assert(c(4) == 4L && c(5) == 5L)
  }

  test("edge direction and duplicates are irrelevant") {
    val a = clustersOf(ConnectedComponents.closure(records(4), edgesDf((2L, 0L), (0L, 2L), (2L, 0L))))
    assert(a(0) == a(2))
  }

  test("two separate components stay separate") {
    val c = clustersOf(ConnectedComponents.closure(records(6), edgesDf((0L, 1L), (3L, 4L))))
    assert(c(0) == c(1) && c(3) == c(4))
    assert(c(0) != c(3))
  }

  test("a 40-record path closes into one component") {
    val n = 40
    val edges = (1 until n).map(i => ((i - 1).toLong, i.toLong))
    val c = clustersOf(ConnectedComponents.closure(records(n), edgesDf(edges: _*)))
    assert(c.values.toSet.size == 1)
  }

  test("a star closes to its centre's label") {
    val edges = (1L to 10L).map(i => (0L, i))
    val c = clustersOf(ConnectedComponents.closure(records(11), edgesDf(edges: _*)))
    assert(c.values.toSet == Set(0L))
  }

  test("closure of a clique equals closure of its spanning tree") {
    val clique = for (i <- 0 until 4; j <- (i + 1) until 4) yield (i.toLong, j.toLong)
    val tree = Seq((0L, 1L), (1L, 2L), (2L, 3L))
    val a = clustersOf(ConnectedComponents.closure(records(5), edgesDf(clique: _*)))
    val b = clustersOf(ConnectedComponents.closure(records(5), edgesDf(tree: _*)))
    assert(a == b)
  }

  test("closure relabels only matched records") {
    // 7 is an endpoint but not a record: it gets no row of its own.
    val c = clustersOf(ConnectedComponents.closure(records(4), edgesDf((1L, 2L), (2L, 7L))))
    assert(c == Map(0L -> 0L, 1L -> 1L, 2L -> 1L, 3L -> 3L))
  }

  test("self-loops, duplicates and an empty edge set leave singletons alone") {
    val loops = clustersOf(ConnectedComponents.closure(records(4), edgesDf((2L, 2L), (2L, 2L), (3L, 1L), (1L, 3L))))
    assert(loops == Map(0L -> 0L, 1L -> 1L, 2L -> 2L, 3L -> 1L))
    val empty = edgesDf((0L, 1L)).filter(col("src") > 5)
    assert(clustersOf(ConnectedComponents.closure(records(3), empty)) == Map(0L -> 0L, 1L -> 1L, 2L -> 2L))
  }

  test("non-dense IDs at and above 2^40 close like dense ones, labelled by the minimum") {
    val big = 1L << 40
    val ids = Seq(big + 9, 5L, big, 1L << 41, big + 3, 17L)
    val recs = ids.toDF("id")
    val c = clustersOf(ConnectedComponents.closure(recs, edgesDf((big + 9, 1L << 41), (1L << 41, big + 3), (17L, big))))
    assert(c == Map(big + 9 -> (big + 3), (1L << 41) -> (big + 3), (big + 3) -> (big + 3),
      17L -> 17L, big -> 17L, 5L -> 5L))
  }

  test("every record is labelled by the minimum ID of its component (seed=3)") {
    val rnd = new scala.util.Random(3)
    val n = 200
    val pairs = Seq.fill(150)((rnd.nextInt(n).toLong, rnd.nextInt(n).toLong))
    val uf = new repro.unionfind.UnionFind(n)
    pairs.foreach { case (a, b) => uf.union(a.toInt, b.toInt) }
    val minOf = (0 until n).groupBy(uf.find).map { case (root, members) => root -> members.min.toLong }
    val c = clustersOf(ConnectedComponents.closure(records(n), edgesDf(pairs: _*)))
    (0 until n).foreach(i => assert(c(i.toLong) == minOf(uf.find(i)), s"record $i"))
  }

  test("no task carries the label table (20,000 labels)") {
    val n = 20000
    val edges = (1 until n).map(i => ((i - 1).toLong, i.toLong))
    val bytes = partitionBytes(ConnectedComponents.closure(records(n), edgesDf(edges: _*)))
    assert(bytes.max < 16 * 1024, s"partition sizes ${bytes.mkString(", ")} bytes")
  }

  test("a record with a null ID gets a null cluster") {
    val recs = Seq(Option(1L), None, Option(2L), Option(4L)).toDF("id")
    val got = ConnectedComponents.closure(recs, edgesDf((2L, 1L))).collect()
      .map(r => (Option(r.get(0)), Option(r.get(1)))).toSet
    assert(got == Set((Some(1L), Some(1L)), (None, None), (Some(2L), Some(1L)), (Some(4L), Some(4L))))
  }

  test("the closure's executed plan has no exchange of its own") {
    def exchanges(recs: org.apache.spark.sql.DataFrame): Int = {
      val closed = ConnectedComponents.closure(recs, edgesDf((1L, 2L), (2L, 50L)))
      closed.collect()
      new AdaptiveSparkPlanHelper {}.collect(closed.queryExecution.executedPlan) { case e: Exchange => e }.size
    }
    assert(exchanges(records(100)) == 0)
    assert(exchanges(records(100).repartition(4)) == 1)
  }

  test("closure plus confusionMatrix over a cached 4-partition edge frame start at most 2 Spark jobs") {
    val n = 2000
    val edges = spark.range(0, n, 1, 4).select(col("id").as("src"), (col("id") - col("id") % 3).as("dst")).cache()
    edges.count()
    val gold = spark.range(0, n, 1, 4).select(col("id"), (col("id") % 11).as("cluster"))
    val (m, jobs) = jobsOf(MetricsEngine.confusionMatrix(ConnectedComponents.closure(records(n), edges), gold, n))
    assert(jobs <= 2, s"closure plus confusionMatrix started $jobs Spark jobs")
    assert(m == ConfusionMatrix.fromClusterings(Array.tabulate(n)(i => i / 3), Array.tabulate(n)(_ % 11)))
    edges.unpersist()
  }

  test("confusionMatrix of the closure equals union-find and the join reference on random graphs (property)") {
    import ConnectedComponentsSpec.ClosureCase
    val sc = spark.sparkContext
    val prop = Prop.forAllNoShrink(ConnectedComponentsSpec.closureCase) { case ClosureCase(ids, labels, edges, parts) =>
      val recs = sc.parallelize(ids, parts).toDF("id")
      val gold = sc.parallelize(ids.zip(labels), parts).toDF("id", "cluster")
      val closed = ConnectedComponents.closure(recs, sc.parallelize(edges, parts).toDF("src", "dst"))
      val got = MetricsEngine.confusionMatrix(closed, gold, ids.size.toLong)
      val reference = ReferenceClusterings.confusionMatrix(closed, gold, ids.size.toLong)
      val driver = ConnectedComponentsSpec.unionFindMatrix(ids, labels, edges)
      (got == driver && got == reference) :| s"confusionMatrix $got, union-find $driver, join reference $reference"
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(30).withInitialSeed(Seed(23L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  test("an edge with a null endpoint fails, naming the edge") {
    val edges = Seq((0L, Option(1L)), (2L, None)).toDF("src", "dst").coalesce(1)
    val e = intercept[IllegalArgumentException](ConnectedComponents.closure(records(3), edges))
    assert(e.getMessage.contains("edge 1 has a null endpoint"), e.getMessage)
  }

  test("more edges than the driver cap fail, naming the count and the cap") {
    val edges = spark.range(10).select(col("id").as("src"), (col("id") + 1).as("dst"))
    val e = intercept[IllegalArgumentException](ConnectedComponents.collectEdges(edges, 4))
    assert(e.getMessage.contains("10 edges") && e.getMessage.contains("cap of 4 edges"), e.getMessage)
    assert(ConnectedComponents.collectEdges(edges, 10)._1.length == 10)
  }

  test("closure collects its edges in one Spark job and keeps the cap across partitions") {
    val sims = spark.range(0, 4000, 1, 8).select(col("id").as("a"), (col("id") + 1).as("b")).cache()
    sims.count()
    val edges = sims.filter(col("a") % 3 =!= 0).select(col("a").as("src"), col("b").as("dst"))
    val (clustering, jobs) = jobsOf(ConnectedComponents.closure(records(4001), edges))
    assert(jobs == 1, s"closure started $jobs Spark jobs")
    val c = clustersOf(clustering)
    assert(c(1) == 1 && c(2) == 1 && c(3) == 1 && c(4) == 4 && c(3999) == 3997)
    // Every partition holds 500 edges, fewer than cap + 1, but all 8 hold more.
    val e = intercept[IllegalArgumentException](ConnectedComponents.collectEdges(sims.select(col("a").as("src"), col("b").as("dst")), 600))
    assert(e.getMessage.contains("4000 edges") && e.getMessage.contains("cap of 600 edges"), e.getMessage)
    sims.unpersist()
  }

  test("a null endpoint in partition 5 of 8 is named by its index across the partitions in order") {
    // Ten edges per partition; partitions 5 and 7 each hold one null endpoint.
    val edges = spark.range(0, 80, 1, 8).select(col("id").as("src"),
      when(col("id") === 53 || col("id") === 71, lit(null)).otherwise(col("id") + 1).as("dst"))
    val e = intercept[IllegalArgumentException](ConnectedComponents.collectEdges(edges, 1000))
    assert(e.getMessage == "edge 53 has a null endpoint: (53, null)", e.getMessage)
  }

  test("closure over a cached 8-partition edge frame runs one Spark job of one stage") {
    val edges = spark.range(0, 800, 1, 8).select(col("id").as("src"), (col("id") / 2).cast("long").as("dst")).cache()
    edges.count()
    val (clustering, jobs, stages) = org.apache.spark.JobCounter(spark.sparkContext)(ConnectedComponents.closure(records(800), edges))
    assert(jobs == 1 && stages == 1, s"closure started $jobs Spark jobs and $stages stages")
    assert(clustersOf(clustering)(799) == 0L)
    edges.unpersist()
  }

  test("edges over the cap whose task results pass spark.driver.maxResultSize fail with the cap message") {
    val edges = spark.range(0, 4000, 1, 8).select(col("id").as("src"), (col("id") + 1).as("dst")).cache()
    edges.count()
    // Eight results of 500 packed edges (8,000 bytes each) pass 20,000 bytes.
    org.apache.spark.ResultSizeLimit(spark.sparkContext, 20000) {
      val e = intercept[IllegalArgumentException](ConnectedComponents.collectEdges(edges, 600))
      assert(e.getMessage.contains("4000 edges") && e.getMessage.contains("cap of 600 edges"), e.getMessage)
      // Under the cap, Spark's own abort stands.
      val abort = intercept[org.apache.spark.SparkException](ConnectedComponents.collectEdges(edges, 4000))
      assert(abort.getMessage.contains("spark.driver.maxResultSize"), abort.getMessage)
    }
    assert(ConnectedComponents.collectEdges(edges, 4000)._1.length == 4000)
    edges.unpersist()
  }

  test("collectEdges keeps the edges, the cap and the null check of the exchange reference (property)") {
    val sc = spark.sparkContext
    val edge = Gen.zip(Gen.choose(-5L, 40L), Gen.frequency(12 -> Gen.choose(-5L, 40L).map(Option(_)), 1 -> Gen.const(None)))
    val gen = for {
      edges <- Gen.choose(0, 60).flatMap(Gen.listOfN(_, edge))
      parts <- Gen.choose(1, 8)
      cap <- Gen.choose(0, 70)
    } yield (edges, parts, cap)
    val prop = Prop.forAllNoShrink(gen) { case (edges, parts, cap) =>
      val df = sc.parallelize(edges, parts).toDF("src", "dst")
      def attempt(f: => (Array[Long], Array[Long])): Either[String, Seq[(Long, Long)]] =
        try Right({ val (a, b) = f; a.toSeq.zip(b.toSeq).sorted })
        catch {
          // The two name a null endpoint's edge by different orders.
          case e: IllegalArgumentException => Left(if (e.getMessage.contains("has a null endpoint")) "null endpoint" else e.getMessage)
        }
      val got = attempt(ConnectedComponents.collectEdges(df, cap))
      val want = attempt(ReferenceConnectedComponents.collectEdges(df, cap))
      (got == want) :| s"collectEdges $got, reference $want"
    }
    val result = Check.check(Check.Parameters.default.withMinSuccessfulTests(40).withInitialSeed(Seed(31L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  private def closedPairs(edges: (Long, Long)*): Long =
    ConnectedComponents.closedPairCount(edges.map(_._1).toArray, edges.map(_._2).toArray)

  test("closedPairCount of clusters 3, 2, 1 is 4") {
    // The clusters {0, 1, 2}, {3, 4} and {5} as edges, in both orientations.
    assert(closedPairs((0L, 1L), (2L, 1L), (3L, 4L), (5L, 5L)) == 4L)
  }

  test("closedPairCount of singletons is zero") {
    assert(closedPairs() == 0L)
    assert(closedPairs((0L, 0L), (1L, 1L), (2L, 2L)) == 0L)
  }

  test("closedPairCount equals pairsFromClustering") {
    val c = (0L until 200L).map(i => (i, i % 13)).toDF("id", "cluster")
    // Each record joined to the previous record of its cluster.
    val edges = (13L until 200L).map(i => (i - 13, i))
    assert(closedPairs(edges: _*) == ReferencePairs.pairsFromClustering(c).count())
  }

  test("matches driver-side union-find on a random graph") {
    val rnd = new scala.util.Random(7)
    val n = 100
    val pairs = Seq.fill(80)((rnd.nextInt(n).toLong, rnd.nextInt(n).toLong)).filter(p => p._1 != p._2)
    val uf = new repro.unionfind.UnionFind(n)
    pairs.foreach { case (a, b) => uf.union(a.toInt, b.toInt) }
    val spark_ = clustersOf(ConnectedComponents.closure(records(n), edgesDf(pairs: _*)))
    // same partition: records share a spark cluster iff they share a UF cluster
    for (i <- 0 until n; j <- (i + 1) until n) {
      assert((spark_(i) == spark_(j)) == (uf.find(i) == uf.find(j)), s"disagreement on ($i,$j)")
    }
  }
}

object ConnectedComponentsSpec {

  /** Records `ids` with gold `labels`, an edge list and a partition count. */
  final case class ClosureCase(ids: Seq[Long], labels: Seq[Long], edges: Seq[(Long, Long)], parts: Int)

  /** Sparse, negative and above-2^40 record IDs and gold labels; edges with
    * self-loops, duplicates in both orientations and endpoints that are not
    * records; one edge list in eight is empty; 1 to 7 partitions.
    */
  val closureCase: Gen[ClosureCase] = {
    val id = Gen.frequency(
      4 -> Gen.choose(-60L, 60L),
      2 -> Gen.choose(1L << 40, (1L << 40) + 30),
      1 -> Gen.oneOf(Long.MinValue, Long.MaxValue, -(1L << 41), (1L << 41) + 5))
    for {
      ids <- Gen.choose(1, 40).flatMap(Gen.listOfN(_, id)).map(_.distinct)
      pool <- Gen.choose(1, 6).flatMap(Gen.listOfN(_, id))
      labels <- Gen.listOfN(ids.size, Gen.oneOf(pool))
      end = Gen.frequency(6 -> Gen.oneOf(ids), 1 -> id)
      edge = Gen.frequency(6 -> Gen.zip(end, end), 1 -> end.map(v => (v, v)))
      drawn <- Gen.frequency(1 -> Gen.const(Nil), 7 -> Gen.choose(1, 30).flatMap(Gen.listOfN(_, edge)))
      again <- Gen.someOf(drawn)
      flipped <- Gen.someOf(drawn)
      parts <- Gen.choose(1, 7)
    } yield ClosureCase(ids, labels, drawn ++ again ++ flipped.map(_.swap), parts)
  }

  /** The matrix of the union-find closure over every record and endpoint
    * against the gold labels, counted by `ConfusionMatrix.fromClusterings`.
    */
  def unionFindMatrix(ids: Seq[Long], labels: Seq[Long], edges: Seq[(Long, Long)]): ConfusionMatrix = {
    val index = (ids ++ edges.flatMap { case (a, b) => Seq(a, b) }).distinct.zipWithIndex.toMap
    val uf = new UnionFind(index.size)
    edges.foreach { case (a, b) => uf.union(index(a), index(b)) }
    val label = labels.distinct.zipWithIndex.toMap
    ConfusionMatrix.fromClusterings(ids.map(i => uf.find(index(i))).toArray, labels.map(label).toArray)
  }
}
