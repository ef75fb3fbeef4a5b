package repro.graph

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.unionfind.UnionFind

/** Connected components over an undirected edge list — the transitive
  * closure step Frost applies to turn a set of matches into an experiment
  * clustering (Frost, Section 1.2 / 4.2.4).
  *
  * Match edge sets are small next to records and candidates (about 11.5k
  * admitted edges against 337k candidates on Z2), so the closure runs on
  * the driver: the edges are collected, their endpoint IDs relabelled to a
  * dense range, and unioned with [[repro.unionfind.UnionFind]]. The
  * records are labelled in Spark by a narrow projection over a broadcast of
  * the component minima, so the closure adds no shuffle to a plan that
  * reads it.
  */
object ConnectedComponents {

  /** Most edges one closure collects to the driver. A collected edge costs
    * roughly 100 bytes there while it is read, so the cap bounds that at
    * about 500 MB; a larger match set fails after at most `maxEdges + 1`
    * of its edges are collected.
    */
  val maxEdges: Int = 5000000

  /** Full clustering of `records` under the transitive closure of `edges`:
    * records touched by an edge get their component's minimum ID, all other
    * records are singletons labelled by their own ID, and a null ID gets a
    * null cluster. Self-loops and duplicate edges are harmless; IDs need not
    * be dense.
    *
    * The sorted endpoint IDs and their minima are broadcast once; each
    * record's label is one binary search there, in a projection of
    * `records`, so the result has the partitioning of `records` and no
    * exchange.
    *
    * @param records DataFrame with a unique long `id` column
    * @param edges   DataFrame with long columns `src`, `dst` (unordered pairs)
    * @return DataFrame (id: Long, cluster: Long)
    * @throws IllegalArgumentException if an edge has a null endpoint or
    *         there are more than [[maxEdges]] edges
    */
  def closure(records: DataFrame, edges: DataFrame): DataFrame = {
    val (src, dst) = collectEdges(edges, maxEdges)
    val (ids, minima) = components(src, dst)
    val shared = records.sparkSession.sparkContext.broadcast((ids, minima))
    // A primitive parameter makes Spark return null for a null ID unasked.
    val label = udf { (id: Long) =>
      val (ids, minima) = shared.value
      val i = java.util.Arrays.binarySearch(ids, id)
      if (i >= 0) minima(i) else id
    }
    records.select(col("id"), label(col("id")).as("cluster"))
  }

  /** The endpoints of at most `cap` edges, failing loudly on a null
    * endpoint (naming the edge's index) or on more than `cap` edges.
    *
    * One Spark job: each task keeps at most `cap + 1` edges, one exchange
    * gathers them into a single partition, and that partition keeps `cap + 1`
    * again, so the driver never receives more. (`limit(cap + 1).collect()`
    * scans the partitions in growing jobs instead, and a DataFrame exchange
    * would be a job of its own under adaptive execution.)
    */
  private[repro] def collectEdges(edges: DataFrame, cap: Int): (Array[Long], Array[Long]) = {
    val ends = edges.select(col("src").cast("long"), col("dst").cast("long"))
    val rows = ends.rdd.mapPartitions(_.take(cap + 1)).repartition(1).mapPartitions(_.take(cap + 1)).collect()
    if (rows.length > cap)
      throw new IllegalArgumentException(
        s"closure over ${ends.count()} edges exceeds the driver cap of $cap edges")
    val src = new Array[Long](rows.length)
    val dst = new Array[Long](rows.length)
    var k = 0
    while (k < rows.length) {
      val r = rows(k)
      if (r.isNullAt(0) || r.isNullAt(1))
        throw new IllegalArgumentException(s"edge $k has a null endpoint: (${r.get(0)}, ${r.get(1)})")
      src(k) = r.getLong(0); dst(k) = r.getLong(1)
      k += 1
    }
    (src, dst)
  }

  /** Pairs in the edges' transitive closure, Σ C(|c|, 2) over their components. */
  private[repro] def closedPairCount(src: Array[Long], dst: Array[Long]): Long = unionAll(src, dst)._2.pairCount

  /** Every endpoint ID of the edges, ascending, and every edge unioned over its indices there. */
  private def unionAll(src: Array[Long], dst: Array[Long]): (Array[Long], UnionFind) = {
    val ids = (src ++ dst).sorted.distinct
    def dense(id: Long): Int = java.util.Arrays.binarySearch(ids, id)
    val uf = new UnionFind(ids.length)
    var k = 0
    while (k < src.length) { uf.union(dense(src(k)), dense(dst(k))); k += 1 }
    (ids, uf)
  }

  /** Every endpoint ID of the edges, ascending, and its component's minimum ID. */
  private def components(src: Array[Long], dst: Array[Long]): (Array[Long], Array[Long]) = {
    val (ids, uf) = unionAll(src, dst)
    // IDs ascend, so the first member seen of each component is its minimum.
    val minOf = Array.fill(ids.length)(-1)
    val minima = Array.tabulate(ids.length) { i =>
      val root = uf.find(i)
      if (minOf(root) < 0) minOf(root) = i
      ids(minOf(root))
    }
    (ids, minima)
  }
}
