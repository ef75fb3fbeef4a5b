package repro.unionfind

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

import repro.core.{ConfusionMatrix, MetricDiagram, ScoredMatch}
import repro.core.SameDiagram.assertSame

class DynamicIntersectionSpec extends AnyFunSuite {

  /** Brute-force TP: pairs agreeing in both exp and gold cluster. */
  private def bruteTp(exp: Array[Int], gold: Array[Int]): Long = {
    var tp = 0L
    for (i <- exp.indices; j <- (i + 1) until exp.length)
      if (exp(i) == exp(j) && gold(i) == gold(j)) tp += 1
    tp
  }

  test("initial intersection has zero pairs") {
    val di = new DynamicIntersection(Array(0, 0, 1, 1))
    assert(di.pairCount == 0)
  }

  test("initial per-cluster sizes are singletons keyed by gold cluster") {
    val di = new DynamicIntersection(Array(0, 0, 1))
    assert(di.intersectionSizes(0) == Map(0L -> 1L))
    assert(di.intersectionSizes(2) == Map(1L -> 1L))
  }

  test("an untouched root keeps its implicit singleton after other merges") {
    val gold = Array(0, 0, 1, 1, 2)
    val uf = new UnionFind(5)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 1), (2, 3))))
    assert(di.pairCount == 2)
    assert(di.intersectionSizes(4) == Map(2L -> 1L))
    assert(di.intersectionSizes(uf.find(2)) == Map(1L -> 2L))
  }

  test("a never-merged source folds into a multi-member cluster") {
    val gold = Array(0, 0, 1, 0, 1)
    val uf = new UnionFind(5)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 1), (1, 2))))
    assert(di.intersectionSizes(uf.find(0)) == Map(0L -> 2L, 1L -> 1L))
    assert(di.pairCount == 1)
    di.update(uf.trackedUnion(Seq((3, 0), (4, 3))))
    assert(di.intersectionSizes(uf.find(0)) == Map(0L -> 3L, 1L -> 2L))
    assert(di.pairCount == bruteTp(uf.toClustering, gold))
  }

  test("the larger map of a smaller experiment cluster moves to the surviving root") {
    // {0,1,2} all gold 0 (one entry, three records) absorbs {3,4} (two entries).
    val gold = Array(0, 0, 0, 1, 2)
    val uf = new UnionFind(5)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 1), (1, 2), (3, 4))))
    val merges = uf.trackedUnion(Seq((0, 3)))
    di.update(merges)
    assert(merges.map(_.target) == Vector(uf.find(0)))
    assert(di.intersectionSizes(uf.find(0)) == Map(0L -> 3L, 1L -> 1L, 2L -> 1L))
    assert(di.pairCount == 3)
  }

  test("a merge whose target is not its largest source folds every source into the target") {
    // Pre-batch clusters {0..4} (size 5), {5,6,7} and {8,9,10} (size 3 each).
    // The two 3s merge first, so a 3's root survives the 5 and is the target.
    val gold = Array(0, 0, 0, 1, 1, 0, 1, 2, 1, 2, 2)
    val uf = new UnionFind(11)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 1), (1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (8, 9), (9, 10))))
    val (five, three, otherThree) = (uf.find(0), uf.find(5), uf.find(8))
    val merges = uf.trackedUnion(Seq((5, 8), (8, 0)))
    assert(merges.map(_.target) == Vector(three))
    assert(merges.head.sources.sorted == Vector(five, three, otherThree).sorted)
    di.update(merges)
    assert(di.pairCount == bruteTp(uf.toClustering, gold))
    assert(di.intersectionSizes(three) == Map(0L -> 4L, 1L -> 4L, 2L -> 3L))
  }

  // Algorithm 1 replayed through the public batched API, one trackedUnion
  // batch and one update per sample point, as the benchmark's traced run
  // does; it must give exactly MetricDiagram.custom's matrices.
  private def replay(n: Int, gold: Array[Int], matches: IndexedSeq[ScoredMatch], s: Int): IndexedSeq[ConfusionMatrix] = {
    val sorted = matches.sortBy(-_.score)
    val bounds = MetricDiagram.boundaries(sorted.length, s)
    val exp = new UnionFind(n)
    val intersect = new DynamicIntersection(gold)
    val goldPairs = gold.groupBy(identity).values.map(c => ConfusionMatrix.pairsOf(c.length.toLong)).sum
    val total = ConfusionMatrix.pairsOf(n.toLong)
    (0 until s).map { i =>
      if (i > 0) intersect.update(exp.trackedUnion(sorted.slice(bounds(i - 1), bounds(i)).map(m => (m.a, m.b))))
      val tp = intersect.pairCount
      val fp = exp.pairCount - tp
      val fn = goldPairs - tp
      ConfusionMatrix(tp, fp, fn, total - tp - fp - fn)
    }
  }

  for (seed <- 1 to 10) {
    test(s"trackedUnion and update replay MetricDiagram.custom (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 20 + rnd.nextInt(400)
      val gold = Array.fill(n)(rnd.nextInt(1 + n / 4) - n / 8)
      val matches = IndexedSeq.fill(rnd.nextInt(4 * n)) {
        val a = rnd.nextInt(n)
        ScoredMatch(a, (a + 1 + rnd.nextInt(n - 1)) % n, rnd.nextInt(20) / 20.0)
      }
      val s = if (rnd.nextBoolean()) (matches.length + 1).max(2) else 2 + rnd.nextInt(30)
      assertSame("replay", replay(n, gold, matches, s), "custom", MetricDiagram.custom(n, gold, matches, s))
    }
  }

  test("merging two records of the same gold cluster yields one TP") {
    val gold = Array(0, 0, 1, 1)
    val uf = new UnionFind(4)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 1))))
    assert(di.pairCount == 1)
  }

  test("merging two records of different gold clusters yields no TP") {
    val gold = Array(0, 0, 1, 1)
    val uf = new UnionFind(4)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((0, 2))))
    assert(di.pairCount == 0)
  }

  test("paper Figure 9: deferred side effect across merges") {
    // gold clustering {a,b},{c}; matches {b,c} then {a,c}. After the first
    // merge the intersection is unchanged; after the second, {a,b} appears.
    val gold = Array(0, 0, 1) // a=0, b=1, c=2
    val uf = new UnionFind(3)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion(Seq((1, 2))))
    assert(di.pairCount == 0)
    di.update(uf.trackedUnion(Seq((0, 2))))
    assert(di.pairCount == 1) // the {a,b} intersection cluster
  }

  test("paper Figure 10 worked example, step by step") {
    // dataset {a,b,c,d} = 0..3; gold g0:{a,b}, g1:{c,d};
    // matches {a,c}, {b,d}, {a,b} applied one at a time.
    val gold = Array(0, 0, 1, 1)
    val uf = new UnionFind(4)
    val di = new DynamicIntersection(gold)
    assert(di.pairCount == 0) // step 0: TP 0

    di.update(uf.trackedUnion(Seq((0, 2)))) // step 1: {a,c}
    assert(di.pairCount == 0)               // TP 0 (FP 1)
    assert(uf.pairCount == 1)
    // intersection clusters of the merged cluster: g0:{a}, g1:{c}
    assert(di.intersectionSizes(uf.find(0)) == Map(0L -> 1L, 1L -> 1L))

    di.update(uf.trackedUnion(Seq((1, 3)))) // step 2: {b,d}
    assert(di.pairCount == 0)               // TP 0 (FP 2)
    assert(uf.pairCount == 2)

    di.update(uf.trackedUnion(Seq((0, 1)))) // step 3: {a,b}
    assert(di.pairCount == 2)               // TP 2: {a,b} and {c,d}
    assert(uf.pairCount == 6)               // FP 4
    assert(di.intersectionSizes(uf.find(0)) == Map(0L -> 2L, 1L -> 2L))
  }

  test("merging within one gold cluster accumulates C(k,2) TPs") {
    val gold = Array.fill(6)(0)
    val uf = new UnionFind(6)
    val di = new DynamicIntersection(gold)
    di.update(uf.trackedUnion((1 until 6).map(i => (i - 1, i))))
    assert(di.pairCount == 15)
  }

  test("batched update equals sequence of single updates") {
    val gold = Array(0, 0, 0, 1, 1, 2)
    val pairs = Seq((0, 1), (3, 4), (1, 3), (2, 5))
    val ufA = new UnionFind(6); val diA = new DynamicIntersection(gold)
    diA.update(ufA.trackedUnion(pairs))
    val ufB = new UnionFind(6); val diB = new DynamicIntersection(gold)
    pairs.foreach(p => diB.update(ufB.trackedUnion(Seq(p))))
    assert(diA.pairCount == diB.pairCount)
  }

  for (seed <- 1 to 10) {
    test(s"randomized TP tracking matches brute force (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 40
      val gold = Array.fill(n)(rnd.nextInt(8))
      val uf = new UnionFind(n)
      val di = new DynamicIntersection(gold)
      (1 to 5).foreach { _ =>
        val batch = Seq.fill(1 + rnd.nextInt(10))((rnd.nextInt(n), rnd.nextInt(n)))
          .filter { case (a, b) => a != b }
        di.update(uf.trackedUnion(batch))
        assert(di.pairCount == bruteTp(uf.toClustering, gold))
      }
    }
  }
}
