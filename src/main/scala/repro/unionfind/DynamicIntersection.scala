package repro.unionfind

/** Dynamically maintained intersection clustering of an evolving experiment
  * clustering and a fixed ground-truth clustering (Frost, Appendix D.3).
  *
  * Each intersection cluster is identified by an (experiment cluster,
  * ground-truth cluster) pair and holds the records they have in common.
  * The paper stores, for every experiment cluster, a map from involved
  * ground-truth cluster to the corresponding intersection cluster; we keep
  * only the intersection cluster *size*, which is all that is needed to
  * maintain the intersection pair count (= true positives of the confusion
  * matrix), and we keep all of them in one table.
  *
  * Two primitive structures hold the state:
  *  - a circular member list per experiment cluster, one `Int` array of size
  *    n (`next`), so two clusters' lists are spliced in O(1);
  *  - one open-addressing table from (experiment representative, gold ID),
  *    packed into a `Long` with the raw ID in the low 32 bits, to that
  *    intersection cluster's size. Gold IDs are used as they are, so sparse
  *    and negative IDs need no relabelling.
  *
  * A singleton experiment cluster is a one-record cycle with no table entry:
  * its intersection is implicitly `{gold(rep) -> 1}`. Merging folds one
  * cluster into another in time linear in the folded cluster's size, so
  * folding the smaller cluster into the larger, as [[UnionFind.union]]
  * chooses, costs O(n log n) over any sequence of merges. The table never
  * holds more than one live entry per record.
  */
final class DynamicIntersection(goldOf: Array[Int]) {

  private val next = new Array[Int](goldOf.length)

  {
    var i = 0
    while (i < next.length) { next(i) = i; i += 1 }
  }

  /** (experiment representative, gold ID) -> intersection cluster size, for
    * representatives of clusters with more than one record. A size of 0
    * marks a free slot; collisions probe linearly.
    */
  private var keys   = new Array[Long](16)
  private var counts = new Array[Int](16)
  private var mask   = 15
  private var shift  = 60 // 64 - log2(capacity): a key's home is the top bits of its hash
  private var live   = 0
  private var pairs  = 0L

  /** Number of intra-cluster pairs of the intersection clustering — equals
    * the TP count of the experiment against the ground truth.
    */
  def pairCount: Long = pairs

  /** Sizes of the intersection clusters of experiment cluster `expRoot`,
    * keyed by gold cluster ID (test/inspection hook), counted over the
    * cluster's member list. `expRoot` must be a current representative of
    * the experiment clustering.
    */
  def intersectionSizes(expRoot: Int): Map[Long, Long] = {
    val members = List.newBuilder[Int]
    var r = expRoot
    while ({ members += r; r = next(r); r != expRoot }) ()
    members.result().groupMapReduce(goldOf(_).toLong)(_ => 1L)(_ + _)
  }

  /** Apply a batch of experiment-cluster merges as reported by
    * [[UnionFind.trackedUnion]] (Algorithm 2 of the paper): every source
    * other than the target is folded into the target.
    */
  def update(merges: IterableOnce[Merge]): Unit =
    merges.iterator.foreach { case Merge(target, sources) =>
      sources.foreach(src => if (src != target) fold(src, target))
    }

  /** Merges experiment cluster `source` into experiment cluster `target`;
    * both are current representatives, and `target` represents the union
    * afterwards. Each gold cluster `g` with `c` records in `source` and
    * `prev` in `target` adds `c * prev` pairs: `prev` is read before `c` is
    * added, so pairs inside `source`, already counted, are not counted
    * again. `source`'s entries are removed as they are read.
    */
  def fold(source: Int, target: Int): Unit = {
    if (next(target) == target) addTo(key(target, goldOf(target)), 1)
    if (next(source) == source) pairs += addTo(key(target, goldOf(source)), 1).toLong
    else {
      var r = source
      while ({
        val g = goldOf(r)
        val c = remove(key(source, g))
        if (c > 0) pairs += c.toLong * addTo(key(target, g), c)
        r = next(r)
        r != source
      }) ()
    }
    val t = next(target); next(target) = next(source); next(source) = t
  }

  private def key(root: Int, gold: Int): Long = (root.toLong << 32) | (gold & 0xFFFFFFFFL)

  /** Slot holding `k`, or the free slot where it would go. */
  private def slot(k: Long): Int = {
    var i = home(k)
    while (counts(i) != 0 && keys(i) != k) i = (i + 1) & mask
    i
  }

  private def home(k: Long): Int = ((k * 0x9E3779B97F4A7C15L) >>> shift).toInt

  /** Adds `c` to the size under `k`; returns the size before. */
  private def addTo(k: Long, c: Int): Int = {
    val i = slot(k)
    val prev = counts(i)
    counts(i) = prev + c
    if (prev == 0) {
      keys(i) = k
      live += 1
      if (2 * live > keys.length) grow()
    }
    prev
  }

  /** Removes `k`; returns its size, or 0 if it had no entry. Later entries
    * of the probe run shift back into the freed slot, so lookups never
    * need a tombstone.
    */
  private def remove(k: Long): Int = {
    var i = slot(k)
    val c = counts(i)
    if (c != 0) {
      live -= 1
      var j = (i + 1) & mask
      while (counts(j) != 0) {
        // The entry at j may fill i unless its home lies cyclically in (i, j].
        if (((j - home(keys(j))) & mask) >= ((j - i) & mask)) {
          keys(i) = keys(j); counts(i) = counts(j); i = j
        }
        j = (j + 1) & mask
      }
      counts(i) = 0
    }
    c
  }

  private def grow(): Unit = {
    val oldKeys = keys; val oldCounts = counts
    keys = new Array[Long](oldKeys.length * 2)
    counts = new Array[Int](oldKeys.length * 2)
    mask = keys.length - 1
    shift -= 1
    var j = 0
    while (j < oldKeys.length) {
      if (oldCounts(j) != 0) { val i = slot(oldKeys(j)); keys(i) = oldKeys(j); counts(i) = oldCounts(j) }
      j += 1
    }
  }
}
