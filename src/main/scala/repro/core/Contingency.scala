package repro.core

import java.util.Arrays

/** The contingency table of two clusterings of the same records (cluster ID
  * per record): the size and column cluster ID of every non-empty (row
  * cluster, column cluster) cell, grouped by row cluster. Row `r`'s cells
  * are `rowStart(r) until rowStart(r + 1)` and hold `rowSize(r)` records.
  * Frost reads every pair and cluster metric from this table (Section 3.2).
  */
private[core] final class Contingency private (
    val cellSize: Array[Int], val cellCol: Array[Int], val rowStart: Array[Int], val rowSize: Array[Int])

private[core] object Contingency {

  /** The table of `rows` against `cols` (same length): one sort of the
    * packed (row ID, column ID) keys and one scan of its runs. The column ID
    * is packed as its raw 32 bits, so any IDs (sparse, negative) need no map.
    */
  def apply(rows: Array[Int], cols: Array[Int]): Contingency = {
    val n = rows.length
    val keys = new Array[Long](n)
    var i = 0
    while (i < n) { keys(i) = (rows(i).toLong << 32) | (cols(i) & 0xFFFFFFFFL); i += 1 }
    Arrays.sort(keys)
    val cellSize = new Array[Int](n)
    val cellCol = new Array[Int](n)
    val rowStart = new Array[Int](n + 1)
    val rowSize = new Array[Int](n)
    var cells = 0; var nRows = 0
    i = 0
    while (i < n) {
      val k = keys(i)
      if (i == 0 || k != keys(i - 1)) {
        if (i == 0 || (k >> 32) != (keys(i - 1) >> 32)) { rowStart(nRows) = cells; nRows += 1 }
        cellCol(cells) = k.toInt
        cells += 1
      }
      cellSize(cells - 1) += 1
      rowSize(nRows - 1) += 1
      i += 1
    }
    rowStart(nRows) = cells
    new Contingency(Arrays.copyOf(cellSize, cells), Arrays.copyOf(cellCol, cells),
      Arrays.copyOf(rowStart, nRows + 1), Arrays.copyOf(rowSize, nRows))
  }

  /** Sum of C(size, 2) over the clusters of one labelling, the record pairs
    * inside them: one sort of a copy of the IDs and a count of its runs,
    * with no other allocation.
    */
  def clusterPairs(labels: Array[Int]): Long = {
    val ids = labels.clone()
    Arrays.sort(ids)
    var pairs = 0L
    var start = 0
    var i = 1
    while (i <= ids.length) {
      if (i == ids.length || ids(i) != ids(start)) { pairs += ConfusionMatrix.pairsOf((i - start).toLong); start = i }
      i += 1
    }
    pairs
  }

  /** Sum of C(size, 2) over `sizes`: the record pairs inside the clusters. */
  def pairSum(sizes: Array[Int]): Long = {
    var pairs = 0L
    for (size <- sizes) pairs += ConfusionMatrix.pairsOf(size.toLong)
    pairs
  }
}
