package repro.unionfind

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class UnionFindSpec extends AnyFunSuite {

  test("initial state: n singleton clusters, zero pairs") {
    val uf = new UnionFind(5)
    assert(uf.toClustering.distinct.length == 5)
    assert(uf.pairCount == 0)
    (0 until 5).foreach(i => assert(uf.find(i) == i))
    (0 until 5).foreach(i => assert(uf.size(i) == 1))
  }

  test("n = 0 is allowed") {
    val uf = new UnionFind(0)
    assert(uf.toClustering.distinct.length == 0 && uf.pairCount == 0)
  }

  test("negative n is rejected") {
    assertThrows[IllegalArgumentException](new UnionFind(-1))
  }

  test("union merges two singletons into one pair") {
    val uf = new UnionFind(4)
    uf.union(0, 1)
    assert(uf.find(0) == uf.find(1))
    assert(uf.find(0) != uf.find(2))
    assert(uf.pairCount == 1)
    assert(uf.toClustering.distinct.length == 3)
  }

  test("union of same cluster is a no-op returning -1") {
    val uf = new UnionFind(3)
    assert(uf.union(0, 1) >= 0)
    assert(uf.union(0, 1) == -1)
    assert(uf.union(1, 0) == -1)
    assert(uf.pairCount == 1)
  }

  test("pair count after merging a and b clusters adds |a|*|b|") {
    val uf = new UnionFind(10)
    uf.union(0, 1); uf.union(1, 2) // cluster of 3 → 3 pairs
    uf.union(3, 4)                 // cluster of 2 → 1 pair
    assert(uf.pairCount == 4)
    uf.union(0, 3)                 // 3*2 = 6 new pairs
    assert(uf.pairCount == 10)     // C(5,2)
    assert(uf.size(4) == 5)
  }

  test("merging everything yields C(n,2) pairs and one component") {
    val n = 137
    val uf = new UnionFind(n)
    (1 until n).foreach(i => uf.union(i - 1, i))
    assert(uf.toClustering.distinct.length == 1)
    assert(uf.pairCount == n.toLong * (n - 1) / 2)
  }

  test("toClustering groups members consistently") {
    val uf = new UnionFind(6)
    uf.union(0, 2); uf.union(2, 4); uf.union(1, 5)
    val c = uf.toClustering
    assert(c(0) == c(2) && c(2) == c(4))
    assert(c(1) == c(5))
    assert(c(0) != c(1) && c(3) != c(0) && c(3) != c(1))
  }

  test("trackedUnion reports one merge entry per surviving merged cluster") {
    val uf = new UnionFind(5)
    val merges = uf.trackedUnion(Seq((0, 1), (2, 3)))
    assert(merges.size == 2)
    merges.foreach(m => assert(m.sources.size == 2))
    assert(merges.map(_.sources.toSet) == Vector(Set(0, 1), Set(2, 3)) ||
      merges.map(_.sources.toSet).toSet == Set(Set(0, 1), Set(2, 3)))
  }

  test("trackedUnion chains merges into a single entry") {
    // Paper example: clusters {a},{b},{c,d}; pairs {a,b},{b,c} →
    // one entry with three sources.
    val uf = new UnionFind(4)
    uf.union(2, 3)
    val pre = (0 to 3).map(uf.find).distinct
    val merges = uf.trackedUnion(Seq((0, 1), (1, 2)))
    assert(merges.size == 1)
    assert(merges.head.sources.toSet == pre.toSet)
    assert(merges.head.target == uf.find(0))
    assert(uf.pairCount == 6)
  }

  test("trackedUnion ignores pairs already in the same cluster") {
    val uf = new UnionFind(4)
    uf.union(0, 1)
    val merges = uf.trackedUnion(Seq((0, 1), (1, 0)))
    assert(merges.isEmpty)
  }

  test("trackedUnion target is the current representative") {
    val uf = new UnionFind(8)
    val merges = uf.trackedUnion(Seq((0, 1), (2, 3), (0, 2)))
    assert(merges.size == 1)
    assert(merges.head.target == uf.find(0))
    assert(merges.head.sources.toSet == Set(0, 1, 2, 3))
  }

  test("consecutive trackedUnion batches report pre-batch clusters as sources") {
    val uf = new UnionFind(6)
    uf.trackedUnion(Seq((0, 1)))
    val r01 = uf.find(0)
    val merges = uf.trackedUnion(Seq((1, 2)))
    assert(merges.size == 1)
    assert(merges.head.sources.toSet == Set(r01, 2))
  }

  // The grouping trackedUnion used before it sorted packed roots: the
  // distinct merged pre-batch roots grouped by post-batch root in a HashMap.
  private def referenceTrackedUnion(uf: UnionFind, batch: Seq[(Int, Int)]): Set[(Int, Set[Int])] = {
    val merged = scala.collection.mutable.ArrayBuffer.empty[Int]
    batch.foreach { case (a, b) =>
      val ra = uf.find(a); val rb = uf.find(b)
      if (ra != rb) { merged += ra; merged += rb; uf.union(ra, rb) }
    }
    merged.distinct.groupBy(uf.find).map { case (t, srcs) => (t, srcs.toSet) }.toSet
  }

  for (seed <- 1 to 8) {
    test(s"trackedUnion reports the reference grouping, targets and sources ascending (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 20 + rnd.nextInt(200)
      val uf = new UnionFind(n)
      val reference = new UnionFind(n)
      (1 to 30).foreach { _ =>
        val batch = Seq.fill(rnd.nextInt(2 + n / 4))((rnd.nextInt(n), rnd.nextInt(n)))
        val merges = uf.trackedUnion(batch)
        assert(merges.map(m => (m.target, m.sources.toSet)).toSet == referenceTrackedUnion(reference, batch))
        assert(merges.map(_.target) == merges.map(_.target).sorted.distinct)
        merges.foreach(m => assert(m.sources == m.sources.sorted.distinct))
        assert(uf.toClustering.sameElements(reference.toClustering))
      }
    }
  }

  // MetricDiagram's pass unions one pair at a time and folds the absorbed
  // cluster into the survivor: a trackedUnion batch of one.
  for (seed <- 1 to 5) {
    test(s"union returns the larger root, as trackedUnion batches do (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 50
      val batched = new UnionFind(n)
      val single = new UnionFind(n)
      (1 to 8).foreach { _ =>
        val batch = Seq.fill(1 + rnd.nextInt(20))((rnd.nextInt(n), rnd.nextInt(n)))
        batched.trackedUnion(batch)
        batch.foreach { case (a, b) =>
          val (ra, rb) = (single.find(a), single.find(b))
          val (sa, sb) = (single.size(a), single.size(b))
          val survivor = single.union(a, b)
          if (ra == rb) assert(survivor == -1)
          else {
            assert(survivor == (if (sa >= sb) ra else rb))
            assert(single.size(survivor) == sa + sb)
          }
        }
        assert(single.toClustering.sameElements(batched.toClustering))
        assert(single.pairCount == batched.pairCount)
      }
    }
  }

  // Randomized cross-check: pairCount and the cluster count against a brute-force
  // partition model, across several seeds.
  for (seed <- 1 to 8) {
    test(s"randomized cross-check against brute-force partitions (seed=$seed)") {
      val rnd = new Random(seed)
      val n = 60
      val uf = new UnionFind(n)
      val model = Array.tabulate(n)(identity)
      def modelFind(x: Int): Int = if (model(x) == x) x else modelFind(model(x))
      (1 to 120).foreach { _ =>
        val a = rnd.nextInt(n); val b = rnd.nextInt(n)
        uf.union(a, b)
        val ra = modelFind(a); val rb = modelFind(b)
        if (ra != rb) model(ra) = rb
      }
      val groups = (0 until n).groupBy(modelFind)
      assert(uf.toClustering.distinct.length == groups.size)
      val expectedPairs = groups.values.map(g => g.size.toLong * (g.size - 1) / 2).sum
      assert(uf.pairCount == expectedPairs)
      groups.values.foreach { g =>
        g.sliding(2).foreach {
          case Seq(x, y) => assert(uf.find(x) == uf.find(y))
          case _         =>
        }
      }
    }
  }
}
