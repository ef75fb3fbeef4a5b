package repro.matching

import org.apache.spark.{Dependency, ShuffleDependency}
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.SparkSpec
import repro.core.MetricsEngine
import repro.graph.ConnectedComponents

/** A matching solution's scoring: the [[Blocking.similarities]] table and
  * a [[Blocking.weightedScore]] over it.
  */
class MatchingSolutionSpec extends SparkSpec {
  import spark.implicits._

  // Two duplicate clusters with corrupted copies plus distinct records.
  private val records = Seq(
    (0L, "thinkpad x230 carbon", "intel i5500 chip"),
    (1L, "thinkpad x230 carbon edition", "intel i5500 chip"),
    (2L, "macbook pro retina", "apple m1000 chip"),
    (3L, "macbook pro retina display", "apple m1000"),
    (4L, "chromebook spin", "mediatek octa"),
    (5L, "zenbook flip", null.asInstanceOf[String]),
  ).toDF("id", "name", "cpu")

  /** (a, b, score) of every candidate of blocking on `blockingAttrs`. */
  private def scored(
      recs: DataFrame,
      weights: Seq[(String, Double)],
      blockingAttrs: Seq[String],
      maxBlockSize: Int = 50,
      vocab: Option[Set[String]] = None,
  ): Array[(Long, Long, Double)] =
    Blocking.similarities(recs, weights.map(_._1), blockingAttrs, maxBlockSize, vocab)
      .select(col("a"), col("b"), Blocking.weightedScore(weights).as("score"))
      .as[(Long, Long, Double)].collect()

  test("scores are in [0, 1]") {
    val all = scored(records, Seq("name" -> 2.0, "cpu" -> 1.0), Seq("name", "cpu"))
    assert(all.nonEmpty)
    all.foreach { case (_, _, s) => assert(s >= 0.0 && s <= 1.0) }
  }

  test("weighted rule matcher: weights shift scores toward heavy attributes") {
    // pair (2,3): name differs by one token, cpu differs by one token out of two
    def pair23(weights: Seq[(String, Double)]) =
      scored(records, weights, Seq("name")).find(r => r._1 == 2L && r._2 == 3L).get._3
    val n = pair23(Seq("name" -> 10.0, "cpu" -> 0.1))
    val c = pair23(Seq("name" -> 0.1, "cpu" -> 10.0))
    assert(n > c) // name sim (3/4) > cpu sim (2/3... weighted)
  }

  test("one-sided null scores 0 for that attribute but keeps its weight active") {
    val recs = Seq(
      (0L, "zenbook flip alpha", "intel chip"),
      (1L, "zenbook flip alpha", null.asInstanceOf[String]),
    ).toDF("id", "name", "cpu")
    val s = scored(recs, Seq("name" -> 0.001, "cpu" -> 10.0), Seq("name")).head._3
    assert(s < 0.01)
  }

  test("both-null attribute is excluded from the weighted mean") {
    val recs = Seq(
      (0L, "zenbook flip alpha", null.asInstanceOf[String]),
      (1L, "zenbook flip alpha", null.asInstanceOf[String]),
    ).toDF("id", "name", "cpu")
    val s = scored(recs, Seq("name" -> 1.0, "cpu" -> 100.0), Seq("name")).head._3
    assert(s == 1.0) // cpu carries no signal, name is identical
  }

  test("knownVocab discounts shared tokens the solution does not know") {
    val recs = Seq(
      (0L, "common alpha beta", "x"),
      (1L, "common alpha delta", "x"),
    ).toDF("id", "name", "cpu")
    // 'alpha' is shared but out-of-vocabulary; 'common' keeps the block alive
    val sFull = scored(recs, Seq("name" -> 1.0), Seq("name"), maxBlockSize = 10).head._3
    val sRestricted = scored(recs, Seq("name" -> 1.0), Seq("name"), maxBlockSize = 10,
      vocab = Some(Set("common", "beta", "delta"))).head._3
    assert(math.abs(sFull - 2.0 / 4) < 1e-9)
    assert(math.abs(sRestricted - 3.0 / 8) < 1e-9) // (|inter| + |known inter|) / 2|union|
  }

  test("end-to-end: perfect matcher on clean duplicates reaches f1 = 1") {
    val recs = Seq(
      (0L, "unique pair alphaone"), (1L, "unique pair alphaone"),
      (2L, "unique pair betatwo"), (3L, "unique pair betatwo"),
      (4L, "solo record gammathree"),
    ).toDF("id", "name")
    val gold = Seq((0L, 0L), (1L, 0L), (2L, 1L), (3L, 1L), (4L, 2L)).toDF("id", "cluster")
    val edges = Blocking.similarities(recs, Seq("name"), Seq("name"), 50, None)
      .filter(Blocking.weightedScore(Seq("name" -> 1.0)) >= 0.99)
      .select(col("a").as("src"), col("b").as("dst"))
    val clustering = ConnectedComponents.closure(recs, edges)
    val cm = MetricsEngine.confusionMatrix(clustering, gold, 5)
    assert(repro.core.PairMetrics.f1(cm) == 1.0)
  }

  test("rule matcher rejects all-zero weights") {
    def rejects(weights: (String, Double)*): String =
      intercept[IllegalArgumentException](Blocking.weightedScore(weights)).getMessage
    assert(rejects("name" -> 0.0).contains("positive weight"))
    assert(rejects().contains("positive weight"))
    assert(rejects("name" -> 1.0, "cpu" -> -1.0).contains("negative weight -1.0 for cpu"))
    assert(rejects("name" -> 1.0, "cpu" -> 1.0, "name" -> 2.0).contains("name listed twice"))
    val e = intercept[IllegalArgumentException](
      Blocking.similarities(records, Seq("name", "cpu", "name"), Seq("name"), 50, None))
    assert(e.getMessage.contains("each attribute once"), e.getMessage)
  }

  test("rule matcher rejects non-finite weights, naming the attribute and the value") {
    def rejects(weights: (String, Double)*): String =
      intercept[IllegalArgumentException](Blocking.weightedScore(weights)).getMessage
    assert(rejects("x" -> Double.PositiveInfinity, "y" -> 1.0).contains("non-finite weight Infinity for x"))
    assert(rejects("x" -> 1.0, "y" -> Double.NaN).contains("non-finite weight NaN for y"))
    assert(rejects("x" -> Double.NegativeInfinity, "y" -> 1.0).contains("non-finite weight -Infinity for x"))
  }

  test("the similarity table and the candidate pairs are computed with no shuffle") {
    def shuffles(rdd: RDD[_]): Seq[Dependency[_]] = rdd.dependencies.flatMap { d =>
      (d match { case s: ShuffleDependency[_, _, _] => Seq(s); case _ => Nil }) ++ shuffles(d.rdd)
    }
    val sims = Blocking.similarities(records, Seq("name", "cpu"), Seq("name", "cpu"), 50, None)
    val candidates = Blocking.tokenBlocking(records, Seq("name", "cpu"), 10)
    assert(shuffles(sims.rdd).isEmpty)
    assert(shuffles(candidates.rdd).isEmpty)
    assert(sims.count() == candidates.count())
  }

  test("no stage of the similarity table carries the vocabulary or token dictionary") {
    // 21,000 distinct record tokens and a 101,000-token vocabulary: either
    // one in a closure is hundreds of KiB more than the plan's own closures
    // (about 140 KiB). Each "grp" token blocks 4 records.
    val many = spark.range(4000).selectExpr("id",
      "concat_ws(' ', concat('grp', id % 1000), transform(sequence(0, 4), k -> concat('tok', id * 5 + k))) AS name")
    val vocab = ((0 until 100000).map(i => s"tok$i") ++ (0 until 1000).map(i => s"grp$i")).toSet
    val sims = Blocking.similarities(many, Seq("name"), Seq("name"), 50, Some(vocab))
    assert(sims.count() == 6000)
    val bytes = rddBytes(sims)
    assert(bytes.max < 256 * 1024, s"RDD sizes ${bytes.mkString(", ")} bytes")
  }

  test("similarity table equals tokenJaccardKnown per attribute, bit for bit") {
    val attrs = Seq("x", "y", "z")
    val values = org.scalacheck.Gen.listOfN(40 * attrs.size, SimilaritySpec.messyString)
      .pureApply(org.scalacheck.Gen.Parameters.default, org.scalacheck.rng.Seed(5L))
    val rows = values.grouped(attrs.size).zipWithIndex.map { case (v, i) => (i.toLong, "blk", v(0), v(1), v(2)) }.toSeq
    val recs = rows.toDF("id", "key", "x", "y", "z")
    val byId = rows.map(r => r._1 -> Seq(r._3, r._4, r._5)).toMap
    for (vocab <- Seq(None, Some(Set("blk", "ab", "ef", "kl")))) {
      val sims = Blocking.similarities(recs, attrs, Seq("key"), 100, vocab).collect()
      assert(sims.length == 40 * 39 / 2)
      sims.foreach { row =>
        val (a, b) = (row.getAs[Long]("a"), row.getAs[Long]("b"))
        attrs.indices.foreach { k =>
          val (l, r) = (byId(a)(k), byId(b)(k))
          val want = vocab.fold(ReferenceSimilarity.tokenJaccard(l, r))(ReferenceSimilarity.tokenJaccardKnown(l, r, _))
          val got = row.getAs[Double](s"sim_${attrs(k)}")
          assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
            s"($a, $b) ${attrs(k)}: '$l' vs '$r' got $got want $want (vocab $vocab)")
          assert(row.getAs[Double](s"act_${attrs(k)}") == (if (l != null || r != null) 1.0 else 0.0))
        }
      }
    }
  }
}
