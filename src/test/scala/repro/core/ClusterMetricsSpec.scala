package repro.core

import org.scalacheck.{Gen, Prop, Test => Check}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.util.Pretty
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class ClusterMetricsSpec extends AnyFunSuite {

  private val gold = Array(0, 0, 0, 1, 1, 2)

  test("closest-cluster metrics are 1 for identical clusterings") {
    assert(ClusterMetrics.closestClusterPrecision(gold, gold) == 1.0)
    assert(ClusterMetrics.closestClusterRecall(gold, gold) == 1.0)
    assert(ClusterMetrics.closestClusterF1(gold, gold) == 1.0)
  }

  test("closest-cluster precision penalizes an over-merged experiment") {
    val exp = Array.fill(6)(0) // one big cluster
    // best Jaccard vs gold clusters: max(3/6, 2/6, 1/6) = 0.5, one cluster
    assert(ClusterMetrics.closestClusterPrecision(exp, gold) == 0.5)
    // recall: each gold cluster vs the big one: 3/6, 2/6, 1/6 → mean = 1/3
    assert(math.abs(ClusterMetrics.closestClusterRecall(exp, gold) - 1.0 / 3) < 1e-12)
  }

  test("closest-cluster f1 on all-singleton experiment") {
    val exp = Array(0, 1, 2, 3, 4, 5)
    // precision: each singleton vs best gold cluster: 1/3,1/3,1/3,1/2,1/2,1 → mean
    val p = (1.0 / 3 * 3 + 0.5 * 2 + 1.0) / 6
    assert(math.abs(ClusterMetrics.closestClusterPrecision(exp, gold) - p) < 1e-12)
    // recall: gold clusters vs singletons: 1/3, 1/2, 1 → mean
    val r = (1.0 / 3 + 0.5 + 1.0) / 3
    assert(math.abs(ClusterMetrics.closestClusterRecall(exp, gold) - r) < 1e-12)
  }

  test("variation of information is 0 for identical clusterings") {
    assert(math.abs(ClusterMetrics.variationOfInformation(gold, gold)) < 1e-12)
  }

  test("variation of information is 0 for relabelled clusterings") {
    val relabel = gold.map(_ + 100)
    assert(math.abs(ClusterMetrics.variationOfInformation(relabel, gold)) < 1e-12)
  }

  test("variation of information: two halves vs one cluster equals ln 2") {
    val a = Array(0, 0, 1, 1)
    val b = Array(0, 0, 0, 0)
    // VI = H(a) + H(b) - 2 I(a,b); H(a)=ln2, H(b)=0, I=0 → VI = ln2
    assert(math.abs(ClusterMetrics.variationOfInformation(a, b) - math.log(2)) < 1e-12)
  }

  test("variation of information is symmetric") {
    val a = Array(0, 0, 1, 2, 2, 2)
    val b = Array(0, 1, 1, 1, 2, 2)
    assert(math.abs(ClusterMetrics.variationOfInformation(a, b) -
      ClusterMetrics.variationOfInformation(b, a)) < 1e-12)
  }

  test("generalized merge distance is 0 for identical clusterings") {
    assert(ClusterMetrics.generalizedMergeDistance(gold, gold) == 0.0)
  }

  test("GMD unit costs: singletons → gold needs (size-1) merges per cluster") {
    val exp = Array(0, 1, 2, 3, 4, 5)
    // gold clusters sizes 3,2,1 → merges: 2 + 1 + 0 = 3
    assert(ClusterMetrics.generalizedMergeDistance(exp, gold) == 3.0)
  }

  test("GMD unit costs: one big cluster → gold needs splits then merges") {
    val exp = Array.fill(6)(0)
    // split the 6-cluster into 3 gold-pure parts: 2 splits; no merges needed
    assert(ClusterMetrics.generalizedMergeDistance(exp, gold) == 2.0)
  }

  test("GMD with size-dependent merge costs") {
    val exp = Array(0, 1, 2)
    val allOne = Array(9, 9, 9)
    // merges: (1,1) then (2,1) with fm = product of sizes: 1 + 2 = 3
    val gmd = ClusterMetrics.generalizedMergeDistance(exp, allOne, fm = (a, b) => (a * b).toDouble)
    assert(gmd == 3.0)
  }

  test("GMD under asymmetric costs does not change when either clustering is relabelled") {
    val fs: (Long, Long) => Double = (part, _) => part.toDouble
    val fm: (Long, Long) => Double = (merged, part) => (2 * merged + part).toDouble
    def gmd(exp: Array[Int], gold: Array[Int]) = ClusterMetrics.generalizedMergeDistance(exp, gold, fm, fs)
    // Split the part of 1 off the part of 2: fs(1, 2) = 1, never fs(2, 1).
    for (gold <- Seq(Array(0, 1, 1), Array(1, 0, 0), Array(5, 7, 7), Array(7, 5, 5)))
      assert(gmd(Array(0, 0, 0), gold) == 1.0, gold.mkString(","))
    // Merge the part of 1 into the part of 2: fm(1, 2) = 4, never fm(2, 1).
    for (exp <- Seq(Array(0, 1, 1), Array(1, 0, 0), Array(5, 7, 7), Array(7, 5, 5)))
      assert(gmd(exp, Array(0, 0, 0)) == 4.0, exp.mkString(","))
    // Fractional costs: equal bit for bit, whatever order clusters are met in.
    import ClusterMetricsSpec.{fmFrac, fsFrac}
    val rnd = new Random(7)
    for (_ <- 1 to 100) {
      val n = 2 + rnd.nextInt(120)
      val k = 1 + rnd.nextInt(20)
      val exp = Array.fill(n)(rnd.nextInt(k))
      val gold = Array.fill(n)(rnd.nextInt(k))
      val label = rnd.shuffle((0 until 1000).toVector)
      for ((f, g) <- Seq((fm, fs), (fmFrac, fsFrac))) {
        val want = ClusterMetrics.generalizedMergeDistance(exp, gold, f, g)
        for ((e, gd) <- Seq((exp.map(label), gold), (exp, gold.map(label))))
          assert(ClusterMetrics.generalizedMergeDistance(e, gd, f, g) == want,
            s"exp ${exp.mkString(",")} gold ${gold.mkString(",")}")
      }
      // The other metrics read the same table, so they do not change either.
      for ((e, gd) <- Seq((exp.map(label), gold), (exp, gold.map(label)))) {
        val clue = s"exp ${exp.mkString(",")} gold ${gold.mkString(",")}"
        assert(ConfusionMatrix.fromClusterings(e, gd) == ConfusionMatrix.fromClusterings(exp, gold), clue)
        assert(math.abs(ClusterMetrics.variationOfInformation(e, gd) -
          ClusterMetrics.variationOfInformation(exp, gold)) < 1e-12, clue)
        assert(math.abs(ClusterMetrics.closestClusterF1(e, gd) -
          ClusterMetrics.closestClusterF1(exp, gold)) < 1e-12, clue)
      }
    }
  }

  private val metrics: Seq[(String, (Array[Int], Array[Int]) => Any)] = Seq(
    ("closestClusterPrecision", ClusterMetrics.closestClusterPrecision(_, _)),
    ("closestClusterRecall", ClusterMetrics.closestClusterRecall(_, _)),
    ("closestClusterF1", ClusterMetrics.closestClusterF1(_, _)),
    ("variationOfInformation", ClusterMetrics.variationOfInformation(_, _)),
    ("generalizedMergeDistance", ClusterMetrics.generalizedMergeDistance(_, _)),
    ("fromClusterings", ConfusionMatrix.fromClusterings(_, _)),
  )

  test("GMD rejects mismatched lengths") {
    for ((name, metric) <- metrics) {
      val e = intercept[IllegalArgumentException](metric(Array(0), Array(0, 1)))
      assert(e.getMessage.contains("exp has 1, gold has 2"), s"$name: ${e.getMessage}")
    }
  }

  test("two empty clusterings give the all-zero matrix and 0.0 for every metric") {
    for ((name, metric) <- metrics) {
      val want = if (name == "fromClusterings") ConfusionMatrix(0, 0, 0, 0) else 0.0
      assert(metric(Array.empty[Int], Array.empty[Int]) == want, name)
    }
  }

  test("cluster metrics and fromClusterings equal the map-based reference on any IDs (property)") {
    val pair = for {
      n <- Gen.choose(0, 500)
      exp <- ClusterMetricsSpec.clustering(n, 40)
      gold <- ClusterMetricsSpec.clustering(n, 40)
    } yield (exp, gold)
    import ClusterMetricsSpec.{fmFrac, fsFrac}
    val prop = Prop.forAllNoShrink(pair) { case (exp, gold) =>
      def bits(x: Double) = java.lang.Double.doubleToRawLongBits(x)
      def close(got: Double, want: Double) = math.abs(got - want) < 1e-12
      val unit: (Long, Long) => Double = (_, _) => 1.0
      val gmd = Seq((unit, unit), (fmFrac, fsFrac)).forall { case (fm, fs) =>
        bits(ClusterMetrics.generalizedMergeDistance(exp, gold, fm, fs)) ==
          bits(ReferenceClusterMetrics.generalizedMergeDistance(exp, gold, fm, fs))
      }
      (ConfusionMatrix.fromClusterings(exp, gold) == ReferenceClusterMetrics.fromClusterings(exp, gold)) :|
        "fromClusterings" &&
        gmd :| "generalizedMergeDistance" &&
        close(ClusterMetrics.variationOfInformation(exp, gold),
          ReferenceClusterMetrics.variationOfInformation(exp, gold)) :| "variationOfInformation" &&
        close(ClusterMetrics.closestClusterPrecision(exp, gold),
          ReferenceClusterMetrics.closestClusterPrecision(exp, gold)) :| "closestClusterPrecision" &&
        close(ClusterMetrics.closestClusterRecall(exp, gold),
          ReferenceClusterMetrics.closestClusterRecall(exp, gold)) :| "closestClusterRecall" &&
        close(ClusterMetrics.closestClusterF1(exp, gold),
          ReferenceClusterMetrics.closestClusterF1(exp, gold)) :| "closestClusterF1"
    }
    val result = Check.check(
      Check.Parameters.default.withMinSuccessfulTests(500).withInitialSeed(Seed(17L)), prop)
    assert(result.passed, Pretty.pretty(result))
  }

  for (seed <- 1 to 5) {
    test(s"VI nonnegative and GMD nonnegative on random clusterings (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 30
      val a = Array.fill(n)(rnd.nextInt(7))
      val b = Array.fill(n)(rnd.nextInt(7))
      assert(ClusterMetrics.variationOfInformation(a, b) >= -1e-12)
      assert(ClusterMetrics.generalizedMergeDistance(a, b) >= 0.0)
      val ccf = ClusterMetrics.closestClusterF1(a, b)
      assert(ccf >= 0.0 && ccf <= 1.0)
    }
  }
}

object ClusterMetricsSpec {

  /** Fractional split and merge costs, under which summation order shows. */
  val fsFrac: (Long, Long) => Double = (part, rest) => part.toDouble / (part + rest)
  val fmFrac: (Long, Long) => Double = (merged, part) => math.sqrt(merged.toDouble) + 1.0 / part

  /** A cluster ID: the extremes, -1 and 0, IDs just above `Int.MinValue`,
    * small ones, and sparse values of either sign.
    */
  val label: Gen[Int] = Gen.frequency(
    2 -> Gen.oneOf(Int.MinValue, -1, 0, Int.MaxValue),
    1 -> Gen.choose(Int.MinValue, Int.MinValue + 50),
    2 -> Gen.choose(0, 50),
    2 -> Gen.choose(Int.MinValue, -1),
    2 -> Gen.choose(Int.MinValue, Int.MaxValue),
  )

  /** A clustering of `n` records into at most `maxClusters` IDs drawn from
    * [[label]].
    */
  def clustering(n: Int, maxClusters: Int): Gen[Array[Int]] = for {
    k <- Gen.choose(1, maxClusters)
    ids <- Gen.listOfN(k, label)
    assign <- Gen.listOfN(n, Gen.oneOf(ids))
  } yield assign.toArray
}
