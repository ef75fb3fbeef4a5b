package repro.matching

import org.apache.spark.{Dependency, ShuffleDependency}
import org.apache.spark.rdd.RDD

import repro.SparkSpec
import repro.core.MetricsEngine

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

  private val ruleMatcher = WeightedRuleMatcher(
    "wr",
    Seq(AttributeRule("name", 2.0), AttributeRule("cpu", 1.0)),
    blockingAttrs = Seq("name", "cpu"),
  )

  test("scores are in [0, 1]") {
    val all = ruleMatcher.score(records).select("score").as[Double].collect()
    assert(all.nonEmpty)
    all.foreach(s => assert(s >= 0.0 && s <= 1.0))
  }

  test("matches applies the threshold inclusively") {
    val scored = ruleMatcher.score(records).as[(Long, Long, Double)].collect()
    val t = scored.map(_._3).max
    val got = ruleMatcher.matches(records, t).as[(Long, Long, Double)].collect()
    assert(got.nonEmpty)
    got.foreach { case (_, _, s) => assert(s >= t) }
  }

  test("raising the threshold never adds matches (monotonicity)") {
    val low = ruleMatcher.matches(records, 0.0).count()
    val high = ruleMatcher.matches(records, 0.7).count()
    assert(high <= low)
  }

  test("clustering transitively closes the matches") {
    val clustering = ruleMatcher.clustering(records, 0.5)
    val byId = clustering.as[(Long, Long)].collect().toMap
    assert(byId(0L) == byId(1L))
    assert(byId(2L) == byId(3L))
    assert(byId(0L) != byId(2L))
    assert(byId.keySet == (0L to 5L).toSet)
  }

  test("weighted rule matcher: weights shift scores toward heavy attributes") {
    val nameHeavy = WeightedRuleMatcher("nh",
      Seq(AttributeRule("name", 10.0), AttributeRule("cpu", 0.1)), Seq("name"))
    val cpuHeavy = WeightedRuleMatcher("ch",
      Seq(AttributeRule("name", 0.1), AttributeRule("cpu", 10.0)), Seq("name"))
    // pair (2,3): name differs by one token, cpu differs by one token out of two
    val n = nameHeavy.score(records).as[(Long, Long, Double)].collect()
      .find(r => r._1 == 2L && r._2 == 3L).get._3
    val c = cpuHeavy.score(records).as[(Long, Long, Double)].collect()
      .find(r => r._1 == 2L && r._2 == 3L).get._3
    assert(n > c) // name sim (3/4) > cpu sim (2/3... weighted)
  }

  test("one-sided null scores 0 for that attribute but keeps its weight active") {
    val cpuOnly = WeightedRuleMatcher("co",
      Seq(AttributeRule("name", 0.001), AttributeRule("cpu", 10.0)), Seq("name"))
    // record 5 has null cpu; any pair with it should score near 0 on cpu
    val recs = Seq(
      (0L, "zenbook flip alpha", "intel chip"),
      (1L, "zenbook flip alpha", null.asInstanceOf[String]),
    ).toDF("id", "name", "cpu")
    val s = cpuOnly.score(recs).as[(Long, Long, Double)].collect().head._3
    assert(s < 0.01)
  }

  test("both-null attribute is excluded from the weighted mean") {
    val m = WeightedRuleMatcher("bn",
      Seq(AttributeRule("name", 1.0), AttributeRule("cpu", 100.0)), Seq("name"))
    val recs = Seq(
      (0L, "zenbook flip alpha", null.asInstanceOf[String]),
      (1L, "zenbook flip alpha", null.asInstanceOf[String]),
    ).toDF("id", "name", "cpu")
    val s = m.score(recs).as[(Long, Long, Double)].collect().head._3
    assert(s == 1.0) // cpu carries no signal, name is identical
  }

  test("knownVocab discounts shared tokens the solution does not know") {
    val recs = Seq(
      (0L, "common alpha beta", "x"),
      (1L, "common alpha delta", "x"),
    ).toDF("id", "name", "cpu")
    val full = WeightedRuleMatcher("f", Seq(AttributeRule("name", 1.0)), Seq("name"), maxBlockSize = 10)
    // 'alpha' is shared but out-of-vocabulary; 'common' keeps the block alive
    val restricted = full.copy(knownVocab = Some(Set("common", "beta", "delta")))
    val sFull = full.score(recs).as[(Long, Long, Double)].collect().head._3
    val sRestricted = restricted.score(recs).as[(Long, Long, Double)].collect().head._3
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
    val m = WeightedRuleMatcher("p", Seq(AttributeRule("name", 1.0)), Seq("name"))
    val clustering = m.clustering(recs, 0.99)
    val cm = MetricsEngine.confusionMatrix(clustering, gold, 5)
    assert(repro.core.PairMetrics.f1(cm) == 1.0)
  }

  test("rule matcher rejects all-zero weights") {
    assertThrows[IllegalArgumentException](
      WeightedRuleMatcher("z", Seq(AttributeRule("name", 0.0)), Seq("name")))
  }

  test("the similarity table and the candidate pairs are computed with no shuffle") {
    def shuffles(rdd: RDD[_]): Seq[Dependency[_]] = rdd.dependencies.flatMap { d =>
      (d match { case s: ShuffleDependency[_, _, _] => Seq(s); case _ => Nil }) ++ shuffles(d.rdd)
    }
    val sims = ruleMatcher.similarities(records)
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
    val sims = WeightedRuleMatcher("wide", Seq(AttributeRule("name", 1.0)), Seq("name"), knownVocab = Some(vocab))
      .similarities(many)
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
      val m = WeightedRuleMatcher("p", attrs.map(AttributeRule(_, 1.0)), Seq("key"), maxBlockSize = 100, knownVocab = vocab)
      val sims = m.similarities(recs).collect()
      assert(sims.length == 40 * 39 / 2)
      sims.foreach { row =>
        val (a, b) = (row.getAs[Long]("a"), row.getAs[Long]("b"))
        attrs.indices.foreach { k =>
          val (l, r) = (byId(a)(k), byId(b)(k))
          val want = vocab.fold(Similarity.tokenJaccard(l, r))(Similarity.tokenJaccardKnown(l, r, _))
          val got = row.getAs[Double](s"sim_${attrs(k)}")
          assert(java.lang.Double.doubleToRawLongBits(got) == java.lang.Double.doubleToRawLongBits(want),
            s"($a, $b) ${attrs(k)}: '$l' vs '$r' got $got want $want (vocab $vocab)")
          assert(row.getAs[Double](s"act_${attrs(k)}") == (if (l != null || r != null) 1.0 else 0.0))
        }
      }
    }
  }
}
