package repro.core

import org.apache.spark.sql.catalyst.plans.logical.Join
import org.apache.spark.sql.functions.when

import repro.SparkSpec

class PairSelectionSpec extends SparkSpec {
  import spark.implicits._

  // 20 scored pairs, scores 0.05 .. 1.00; pairs with even `a` are correct.
  private val pairs = (1 to 20)
    .map(i => (i.toLong, (i + 100).toLong, i / 20.0, i % 2 == 0))
    .toDF("a", "b", "score", "correct")

  test("aroundThreshold picks k/2 just above and k/2 just below") {
    val got = PairSelection.aroundThreshold(pairs, threshold = 0.5, k = 4)
      .select("score").as[Double].collect().toSet
    assert(got == Set(0.50, 0.55, 0.45, 0.40))
  }

  test("aroundThreshold below side gets the extra pair for odd k") {
    val got = PairSelection.aroundThreshold(pairs, 0.5, 5)
      .select("score").as[Double].collect().toSet
    assert(got == Set(0.50, 0.55, 0.45, 0.40, 0.35))
  }

  test("aroundThresholdProportional splits the budget by fraction") {
    val got = PairSelection.aroundThresholdProportional(pairs, 0.5, 4, aboveFraction = 0.75)
      .select("score").as[Double].collect().toSet
    assert(got == Set(0.50, 0.55, 0.60, 0.45))
  }

  test("aroundThresholdProportional validates the fraction") {
    assertThrows[IllegalArgumentException](
      PairSelection.aroundThresholdProportional(pairs, 0.5, 4, 1.5))
  }

  test("incorrectOutliers returns misclassified pairs furthest from the threshold") {
    val got = PairSelection.incorrectOutliers(pairs, threshold = 0.5, k = 2)
      .select("score").as[Double].collect().toSet
    // incorrect pairs have odd a → scores .05,.15,...,.95; furthest from .5: .05 and .95
    assert(got == Set(0.05, 0.95))
  }

  test("percentileRepresentatives quantile sampling returns b per partition") {
    val got = PairSelection.percentileRepresentatives(pairs, numPartitions = 4, b = 2, sampling = "quantile")
    val byPart = got.select("partition", "score").as[(Int, Double)].collect().groupBy(_._1)
    assert(byPart.keySet == Set(0, 1, 2, 3))
    byPart.values.foreach(v => assert(v.length == 2))
    // quantile endpoints: min and max score of each partition
    val p0 = byPart(0).map(_._2).sorted
    assert(p0.head == 0.05 && p0.last == 0.25)
  }

  test("percentileRepresentatives random sampling respects the budget") {
    val got = PairSelection.percentileRepresentatives(pairs, 4, 3, sampling = "random", seed = 1)
    val byPart = got.select("partition").as[Int].collect().groupBy(identity)
    byPart.values.foreach(v => assert(v.length <= 3))
    assert(byPart.keySet == Set(0, 1, 2, 3))
  }

  test("percentileRepresentatives class sampling weighs by class share") {
    val got = PairSelection.percentileRepresentatives(pairs, 2, 4, sampling = "class", seed = 2)
    // each 10-pair partition is half correct, half incorrect → 2 + 2 per partition
    val byPart = got.select("partition", "correct").as[(Int, Boolean)].collect().groupBy(_._1)
    byPart.values.foreach { v =>
      assert(v.count(_._2) == 2)
      assert(v.count(!_._2) == 2)
    }
  }

  test("percentileRepresentatives class sampling spends exactly an odd budget on an even class split") {
    val got = PairSelection.percentileRepresentatives(pairs, 2, 3, sampling = "class", seed = 2)
    // 10 correct and 10 incorrect pairs split 5 + 5 per partition: the
    // correct class rounds 1.5 up to 2 and the incorrect class gets the 1 left.
    val byPart = got.select("partition", "correct").as[(Int, Boolean)].collect().groupBy(_._1)
    assert(byPart.keySet == Set(0, 1))
    byPart.foreach { case (p, v) =>
      assert(v.length == 3, s"partition $p: ${v.length} representatives for a budget of 3")
      assert(v.count(_._2) == 2 && v.count(!_._2) == 1, s"partition $p: ${v.toSeq}")
    }
  }

  test("percentileRepresentatives class sampling counts a null class as incorrect, within the budget") {
    // One partition of 5 correct, 3 incorrect and 2 unlabelled pairs at b = 4:
    // 2 correct representatives and 2 from the incorrect and unlabelled pairs.
    val labels = Seq.fill(5)(Option(true)) ++ Seq.fill(3)(Option(false)) ++ Seq.fill(2)(Option.empty[Boolean])
    val mixed = labels.zipWithIndex.map { case (c, i) => (i.toLong, i + 100L, i / 10.0, c) }
      .toDF("a", "b", "score", "correct")
    for (seed <- 1L to 5L) {
      val got = PairSelection.percentileRepresentatives(mixed, 1, 4, sampling = "class", seed = seed)
        .select("correct").as[Option[Boolean]].collect()
      assert(got.length == 4 && got.count(_.contains(true)) == 2, s"seed $seed: ${got.toSeq}")
    }
  }

  test("percentileRepresentatives class sampling counts each partition's classes without a join") {
    val plan = PairSelection.percentileRepresentatives(pairs, 2, 4, sampling = "class").queryExecution.optimizedPlan
    assert(plan.collect { case j: Join => j }.isEmpty, plan.treeString)
  }

  // The pairs above, with a NaN score on the misclassified pair (7, 107).
  private val withNaN = pairs.withColumn("score", when($"a" === 7, Double.NaN).otherwise($"score"))
  private val nanTools = Seq[(String, () => Any)](
    "aroundThreshold" -> (() => PairSelection.aroundThreshold(withNaN, 0.5, 4).collect()),
    "aroundThresholdProportional" -> (() => PairSelection.aroundThresholdProportional(withNaN, 0.5, 4, 0.75).collect()),
    "incorrectOutliers" -> (() => PairSelection.incorrectOutliers(withNaN, 0.5, 2).collect()),
    "partitionConfidence" -> (() => PairSelection.partitionConfidence(withNaN, 4).collect())) ++
    Seq("random", "class", "quantile").map(m =>
      s"percentileRepresentatives($m)" -> (() => PairSelection.percentileRepresentatives(withNaN, 4, 2, m).collect()))
  for ((name, tool) <- nanTools) test(s"$name fails on a NaN score, naming the pair") {
    val e = intercept[Exception](tool())
    assert(e.getMessage.contains("pair (7, 107) has a NaN score"), e.getMessage)
  }

  test("percentileRepresentatives rejects unknown strategies") {
    assertThrows[RuntimeException](
      PairSelection.percentileRepresentatives(pairs, 2, 2, sampling = "bogus").collect())
  }

  test("partitionConfidence labels each partition with its confusion counts") {
    val got = PairSelection.partitionConfidence(pairs, 4)
      .select("partition", "pairs", "correctPairs", "incorrectPairs")
      .as[(Int, Long, Long, Long)].collect()
    assert(got.length == 4)
    got.foreach { case (_, n, c, i) =>
      assert(n == 5)
      assert(c + i == 5)
    }
  }

  test("plainResultPairs hides closure-added pairs") {
    val closed = Seq((0L, 1L), (1L, 2L), (0L, 2L)).toDF("a", "b")
    val original = Seq((0L, 1L), (2L, 1L), (0L, 1L), (3L, 3L)).toDF("a", "b")
    val got = PairSelection.plainResultPairs(closed, original)
      .as[(Long, Long)].collect().toSet
    assert(got == Set((0L, 1L), (1L, 2L)))
  }
}
